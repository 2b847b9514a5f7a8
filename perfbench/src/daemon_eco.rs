//! `daemon-eco`: a `hummingbird serve` child on its default transport
//! holds two tenants. One connection edits tenant `edit` in a closed
//! loop (an `eco`, then a few `slack` reads); a second reads tenant
//! `watch` on a fixed schedule, timed from each read's due time.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hb_cells::{Binding, Library};
use hb_io::{Frame, HumFile};
use hb_netlist::{Endpoint, ModuleId};
use hb_resynth::{apply_eco, EcoError, EcoOp};
use hb_rng::SmallRng;
use hb_server::Client;
use hb_workloads::GenKind;
use hummingbird::Analyzer;

use crate::common::{
    derive_seed, peak_rss_mb, repeat_setup, spec_for, write_inputs, Ctx, Family, Input, Outcome,
    Size, PIPELINE_SEED,
};
use crate::layers::{count_prep, from_spans, set};
use crate::stats::{mean, Metric};
use crate::trace::{sum_series, EngineTotals, Tracer};

/// `slack` reads on the editing connection after each ECO.
const READS_PER_ECO: usize = 4;
/// The open-loop reader's schedule, in reads per second.
const WATCH_RATE: f64 = 100.0;
/// Sampled reads of `edit` checked after the last ECO.
const FINAL_SAMPLES: usize = 32;
/// Failure kinds: an `eco` answered with an error, a request shed as
/// `busy`, a read answered with an error or lost with its connection,
/// and scheduled reads never sent because the connection was gone.
const ECO_ERROR: &str = "eco_error";
const BUSY: &str = "busy";
const READ_ERROR: &str = "read_error";
const OUTSTANDING: &str = "outstanding";

/// How long any one request may take before the run gives up on it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `hummingbird serve` child; dropping it stops the process.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start(hummingbird: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(hummingbird)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", hummingbird.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("the daemon did not announce its address: {line:?}"));
        };
        Ok(Daemon {
            addr: addr.to_owned(),
            child,
            _stdout: stdout,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn connect(&self) -> Result<Client, String> {
        let mut c = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        c.set_timeout(Some(REQUEST_TIMEOUT))
            .map_err(|e| format!("socket timeout: {e}"))?;
        Ok(c)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut c) = self.connect() {
            let _ = c.request(&Frame::new("shutdown"));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn request(c: &mut Client, frame: &Frame) -> Result<Frame, String> {
    c.request(frame)
        .map_err(|e| format!("{} failed: {e}", frame.verb))
}

fn expect_ok(reply: Frame, what: &str) -> Result<Frame, String> {
    if reply.verb == "ok" {
        Ok(reply)
    } else {
        Err(format!("{what}: {} {:?}", reply.verb, reply.payload))
    }
}

/// What set-up leaves behind: the daemon holding both tenants, the
/// connection that loaded them, and both design texts.
///
/// The loading connection goes on to carry the edits, so the daemon
/// thread that parsed both designs is the one that edits `edit`; the
/// reader connects later, to a thread of its own. Which allocator arena
/// each daemon thread draws from, and with it the daemon's peak
/// resident set, then no longer depends on which connection the daemon
/// happened to serve first.
struct Served {
    daemon: Daemon,
    conn: Client,
    edit_text: String,
    watch_text: String,
}

fn set_up(ctx: &Ctx, inputs: &[Input], tr: &mut Tracer) -> Result<Served, String> {
    for ns in write_inputs(ctx, inputs)? {
        tr.record("gen", ns);
    }
    let daemon = Daemon::start(&ctx.hummingbird)?;
    let mut c = daemon.connect()?;
    let mut texts = Vec::new();
    for (id, input) in ["edit", "watch"].into_iter().zip(inputs) {
        let read = tr.open("io.read");
        let text = std::fs::read_to_string(&input.path)
            .map_err(|e| format!("cannot read {}: {e}", input.path.display()))?;
        tr.close(read);
        expect_ok(
            request(&mut c, &Frame::new("open").arg("design", id))?,
            "open",
        )?;
        let load = Frame::new("load")
            .arg("design", id)
            .with_payload(text.as_str());
        expect_ok(request(&mut c, &load)?, "load")?;
        expect_ok(
            request(&mut c, &Frame::new("analyze").arg("design", id))?,
            "analyze",
        )?;
        texts.push(text);
    }
    let watch_text = texts.pop().expect("two tenants");
    let edit_text = texts.pop().expect("two tenants");
    Ok(Served {
        daemon,
        conn: c,
        edit_text,
        watch_text,
    })
}

/// Parses a design text in-process, as the daemon's `load` does.
fn parse(text: &str, lib: &Library, tr: &mut Tracer) -> Result<(HumFile, ModuleId), String> {
    let parse = tr.open("io.parse");
    let file = hb_io::parse_hum(text, lib).map_err(|e| format!("parse: {e}"))?;
    tr.close(parse);
    tr.count("io.bytes", text.len() as f64);
    let validate = tr.open("netlist.validate");
    file.design
        .validate()
        .map_err(|e| format!("invalid design: {e}"))?;
    tr.close(validate);
    let top = file.design.top().ok_or("no top")?;
    Ok((file, top))
}

/// The seeded edit stream on `edit`. Every edit is applied first to a
/// local mirror of the design, so only edits that apply are sent, and
/// the mirror ends as the design the daemon should hold.
struct EditStream<'a> {
    lib: &'a Library,
    mirror: HumFile,
    top: ModuleId,
    /// Instances with another drive variant to move to (clock buffers
    /// excluded).
    insts: Vec<String>,
    /// Nets driven by a cell.
    nets: Vec<String>,
    rng: SmallRng,
    step: usize,
}

impl<'a> EditStream<'a> {
    fn new(mirror: HumFile, top: ModuleId, lib: &'a Library, seed: u64) -> Result<Self, String> {
        let binding = Binding::new(&mirror.design, lib);
        let m = mirror.design.module(top);
        let mut insts = Vec::new();
        for (id, inst) in m.instances() {
            let Some(cell) = binding.cell_for_instance(&mirror.design, top, id) else {
                continue;
            };
            let cell = lib.cell(cell);
            if cell.sync_spec().is_none()
                && !cell.family().starts_with("CLKBUF")
                && lib.family_variants(cell.family()).len() >= 2
            {
                insts.push(inst.name().to_owned());
            }
        }
        let nets: Vec<String> = m
            .nets()
            .filter(|(id, _)| matches!(m.driver(*id), Some(Endpoint::Pin { .. })))
            .map(|(_, n)| n.name().to_owned())
            .collect();
        if insts.is_empty() || nets.is_empty() {
            return Err("the edit design offers no edit targets".into());
        }
        Ok(EditStream {
            lib,
            mirror,
            top,
            insts,
            nets,
            rng: SmallRng::seed_from_u64(seed),
            step: 0,
        })
    }

    /// A net to read.
    fn net(&mut self) -> String {
        self.nets[self.rng.gen_range(0..self.nets.len())].clone()
    }

    /// The next edit: even steps resize an instance one drive step,
    /// odd steps rescale a net's load.
    fn next(&mut self, tr: &mut Tracer) -> Result<EcoOp, String> {
        let candidates = if self.step.is_multiple_of(2) {
            let inst = self.insts[self.rng.gen_range(0..self.insts.len())].clone();
            let first = if self.rng.gen_bool(0.5) { 1 } else { -1 };
            vec![
                EcoOp::RetargetDrive {
                    inst: inst.clone(),
                    steps: first,
                },
                EcoOp::RetargetDrive {
                    inst,
                    steps: -first,
                },
            ]
        } else {
            vec![EcoOp::ScaleNetLoad {
                net: self.net(),
                percent: 50 + self.rng.gen_range(0..151) as u32,
            }]
        };
        self.step += 1;
        for op in candidates {
            let apply = tr.open("eco.apply");
            let applied = apply_eco(&mut self.mirror.design, self.top, self.lib, &op);
            tr.close(apply);
            match applied {
                Ok(_) => return Ok(op),
                // At the end of its family's variants: step the other way.
                Err(EcoError::DriveLimit { .. }) => continue,
                Err(e) => return Err(format!("the edit stream chose an invalid edit: {e}")),
            }
        }
        Err("no drive variant in either direction".into())
    }
}

/// Classifies an error reply to `verb` on `target`.
fn refused(verb: &str, target: &str, reply: &Frame) -> (&'static str, String) {
    let kind = match (reply.get("code"), verb) {
        (Some("busy"), _) => BUSY,
        (_, "eco") => ECO_ERROR,
        _ => READ_ERROR,
    };
    (
        kind,
        format!("{verb} {target}: {} {:?}", reply.verb, reply.payload),
    )
}

fn eco_frame(op: &EcoOp) -> Frame {
    let f = Frame::new("eco").arg("design", "edit");
    match op {
        EcoOp::RetargetDrive { inst, steps } => {
            f.arg("op", "resize").arg("inst", inst).arg("steps", steps)
        }
        EcoOp::ScaleNetLoad { net, percent } => f
            .arg("op", "scale-net")
            .arg("net", net)
            .arg("percent", percent),
    }
}

fn slack_frame(design: &str, node: &str) -> Frame {
    Frame::new("slack").arg("design", design).arg("node", node)
}

/// What the editing connection saw.
#[derive(Default)]
struct EditLog {
    /// One ECO and its reads, in seconds.
    round_s: Vec<f64>,
    eco_ms: Vec<f64>,
    read_us: Vec<f64>,
    ecos: u64,
    reads: u64,
    /// `(failure kind, description)` of every failed operation.
    errors: Vec<(&'static str, String)>,
    last_worst: Option<String>,
    /// `(net, slack)` read since the last ECO.
    last_reads: Vec<(String, String)>,
}

/// What the scheduled reader saw.
#[derive(Default)]
struct WatchLog {
    latency_us: Vec<f64>,
    late_ms: Vec<f64>,
    reads: u64,
    wrong: Vec<String>,
    /// `(failure kind, description)` of every failed operation.
    errors: Vec<(&'static str, String)>,
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let lib = hb_cells::sc89();
    let cells = match ctx.size {
        Size::Full => 100_000,
        Size::Small => 2_000,
    };
    let inputs = [
        Input::new(
            Family::Gen(GenKind::Pipeline),
            cells,
            PIPELINE_SEED,
            "eco-edit",
            &ctx.work,
        ),
        Input::new(
            Family::Gen(GenKind::Sram),
            cells,
            ctx.seed,
            "eco-watch",
            &ctx.work,
        ),
    ];
    let (setup, served) = repeat_setup(ctx, tr, |tr| set_up(ctx, &inputs, tr))?;
    let loaded_rss = peak_rss_mb(Some(served.daemon.pid()))?;

    // The local mirror of `edit` and the expected answers for `watch`,
    // both from in-process analyses that share nothing with the daemon.
    let (mirror, edit_top) = parse(&served.edit_text, &lib, tr)?;
    let mut stream = EditStream::new(mirror, edit_top, &lib, derive_seed(ctx.seed, "eco-stream"))?;
    let (watch, watch_top) = parse(&served.watch_text, &lib, tr)?;
    let watch_report = Analyzer::new(
        &watch.design,
        watch_top,
        &lib,
        &watch.clocks,
        spec_for(&watch),
    )
    .map_err(|e| e.to_string())?
    .analyze();
    let watch_nodes: Vec<(String, String)> = {
        let mut rng = SmallRng::seed_from_u64(derive_seed(ctx.seed, "watch-nodes"));
        let m = watch.design.module(watch_top);
        let all: Vec<_> = m.nets().collect();
        (0..256)
            .map(|_| {
                let (id, n) = all[rng.gen_range(0..all.len())];
                (n.name().to_owned(), watch_report.net_slack(id).to_string())
            })
            .collect()
    };
    drop(watch);

    let Served {
        daemon,
        conn: mut edit_conn,
        edit_text: _,
        watch_text: _,
    } = served;
    let mut watch_conn = daemon.connect()?;
    let origin = Instant::now();
    let end = origin + Duration::from_secs_f64(ctx.seconds);
    let mut watch_tr = Tracer::new(tr.on(), tr.origin());

    let (edit, watched) = std::thread::scope(|s| {
        let reader =
            s.spawn(|| watch_loop(&mut watch_conn, &watch_nodes, origin, end, &mut watch_tr));
        let edit = edit_loop(&mut edit_conn, &mut stream, end, tr);
        (
            edit,
            reader.join().expect("the reader thread does not panic"),
        )
    });
    let mut edit = edit?;
    tr.absorb(watch_tr);

    // Sampled reads of `edit` after the last ECO, outside the timed loop.
    let timed_reads = edit.read_us.len();
    for _ in 0..FINAL_SAMPLES {
        read_edit(&mut edit_conn, stream.net(), &mut edit, tr)?;
    }

    let rss = peak_rss_mb(Some(daemon.pid()))?;
    let metrics_text = if tr.on() {
        request(&mut edit_conn, &Frame::new("metrics"))?
            .payload
            .unwrap_or_default()
    } else {
        String::new()
    };
    drop(edit_conn);
    drop(watch_conn);
    drop(daemon);

    let mut out = Outcome::new(&[ECO_ERROR, BUSY, READ_ERROR, OUTSTANDING]);
    out.attempted = edit.ecos + edit.reads + watched.reads;
    for (kind, what) in edit.errors.iter().chain(&watched.errors) {
        out.fail(kind, what.clone());
    }

    // The cold, cache-free in-process analysis of the same edit sequence.
    let mirror = &stream.mirror;
    let cold = Analyzer::new(
        &mirror.design,
        edit_top,
        &lib,
        &mirror.clocks,
        spec_for(mirror),
    )
    .map_err(|e| e.to_string())?
    .analyze();
    let cold_worst = cold.worst_slack().to_string();
    out.check(
        edit.last_worst.as_deref() == Some(cold_worst.as_str()),
        || {
            format!(
                "edit: final worst slack {:?} differs from the cold analysis {cold_worst}",
                edit.last_worst
            )
        },
    );
    let m = mirror.design.module(edit_top);
    for (net, slack) in &edit.last_reads {
        let expected = m.net_by_name(net).map(|id| cold.net_slack(id).to_string());
        out.check(expected.as_deref() == Some(slack.as_str()), || {
            format!("edit: slack of {net} read {slack}, cold analysis says {expected:?}")
        });
    }
    out.check(watched.wrong.is_empty(), || {
        format!(
            "watch: {} reads differ from the cold analysis, first {}",
            watched.wrong.len(),
            watched.wrong[0]
        )
    });
    if edit.eco_ms.is_empty() || edit.read_us.is_empty() || watched.latency_us.is_empty() {
        return Err("the timed phase completed no ECO or no read".into());
    }

    out.end_to_end = vec![
        setup,
        Metric::value("peak_rss_mb", "MB", rss, 1),
        Metric::median_of("round_s", "s", &edit.round_s),
    ];
    out.figures = vec![
        Metric::value("loaded_rss_mb", "MB", loaded_rss, 1),
        Metric::median_of("eco_ms", "ms", &edit.eco_ms),
        Metric::median_of("read_us", "us", &edit.read_us[..timed_reads]),
        Metric::median_of("cross_read_us", "us", &watched.latency_us),
    ];
    if tr.on() {
        count_prep(tr, cold.prep_stats());
        out.per_layer = layer_metrics(tr, &metrics_text, &edit, &watched);
    }
    Ok(out)
}

/// Edits `edit` in a closed loop until `end`: one ECO, then its reads.
fn edit_loop(
    c: &mut Client,
    stream: &mut EditStream,
    end: Instant,
    tr: &mut Tracer,
) -> Result<EditLog, String> {
    let mut log = EditLog::default();
    while Instant::now() < end || log.ecos == 0 {
        let op = stream.next(tr)?;
        tr.next_request();
        let frame = eco_frame(&op);
        let span = tr.open("server.eco");
        let round = Instant::now();
        let reply = request(c, &frame)?;
        let ms = round.elapsed().as_secs_f64() * 1e3;
        tr.close(span);
        log.ecos += 1;
        if reply.verb != "ok" {
            log.errors.push(refused("eco", &format!("{op:?}"), &reply));
            continue;
        }
        log.eco_ms.push(ms);
        log.last_worst = reply.get("worst").map(str::to_owned);
        log.last_reads.clear();
        let mut round_ok = true;
        for _ in 0..READS_PER_ECO {
            round_ok &= read_edit(c, stream.net(), &mut log, tr)?;
        }
        if round_ok {
            log.round_s.push(round.elapsed().as_secs_f64());
        }
    }
    Ok(log)
}

/// One timed `slack` read of `edit`; false when it was refused.
fn read_edit(
    c: &mut Client,
    net: String,
    log: &mut EditLog,
    tr: &mut Tracer,
) -> Result<bool, String> {
    let frame = slack_frame("edit", &net);
    let span = tr.open("server.read");
    let t = Instant::now();
    let reply = request(c, &frame)?;
    let us = t.elapsed().as_secs_f64() * 1e6;
    tr.close(span);
    log.reads += 1;
    match reply.get("slack") {
        Some(s) if reply.verb == "ok" => {
            log.read_us.push(us);
            log.last_reads.push((net, s.to_owned()));
            Ok(true)
        }
        _ => {
            log.errors.push(refused("slack", &net, &reply));
            Ok(false)
        }
    }
}

/// Reads `watch` at a fixed rate until `end`. Every read due before
/// `end` is sent, however late; its latency runs from its due time.
fn watch_loop(
    c: &mut Client,
    nodes: &[(String, String)],
    origin: Instant,
    end: Instant,
    tr: &mut Tracer,
) -> WatchLog {
    let mut log = WatchLog::default();
    let period = Duration::from_secs_f64(1.0 / WATCH_RATE);
    for i in 0u32.. {
        let due = origin + period * i;
        if due >= end {
            break;
        }
        // Sleep to just short of the due time, then spin the rest: a
        // late wake-up would otherwise count against the daemon.
        let now = Instant::now();
        if due > now + Duration::from_micros(300) {
            std::thread::sleep(due - now - Duration::from_micros(300));
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        log.late_ms.push((sent - due).as_secs_f64() * 1e3);
        let (node, expected) = &nodes[i as usize % nodes.len()];
        tr.next_request();
        let span = tr.open("server.watch_read");
        let reply = c.request(&slack_frame("watch", node));
        tr.close(span);
        log.reads += 1;
        match reply {
            Ok(r) if r.verb == "ok" => {
                log.latency_us.push(due.elapsed().as_secs_f64() * 1e6);
                if r.get("slack") != Some(expected.as_str()) {
                    log.wrong.push(format!(
                        "{node}: read {:?}, expected {expected}",
                        r.get("slack")
                    ));
                }
            }
            Ok(r) => log.errors.push(refused("slack", node, &r)),
            Err(e) => {
                // The connection is gone: every read still due is
                // outstanding at the end.
                log.errors
                    .push((READ_ERROR, format!("watch slack {node}: {e}")));
                let left = end.saturating_duration_since(due).as_secs_f64() * WATCH_RATE;
                for _ in 0..left as u64 {
                    log.errors
                        .push((OUTSTANDING, "watch read still due at the end".into()));
                }
                break;
            }
        }
    }
    log
}

/// Per-request means from the daemon's `metrics` exposition, in ns.
fn server_mean_ns(text: &str, name: &str, labels: &[(&str, &str)]) -> f64 {
    let sum = sum_series(text, &format!("{name}_sum"), labels) as f64;
    let count = sum_series(text, &format!("{name}_count"), labels) as f64;
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

fn layer_metrics(tr: &Tracer, text: &str, edit: &EditLog, watched: &WatchLog) -> Vec<Metric> {
    let mut m = from_spans(tr);

    // The daemon's own series: one analysis per ECO plus set-up's. The
    // daemon exposes no span for the whole of preparation, so
    // `core.prepare_ms` is the sum of its phases here and
    // `core.prep.other_ms` stays 0.
    let engine = EngineTotals::from_exposition(text);
    engine.set_layers(&mut m);
    let n = engine.analyses as usize;
    let phase = |p: &str| server_mean_ns(text, "hb_prep_nanoseconds", &[("phase", p)]) / 1e6;
    let (graph, controls, planning) = (
        phase("graph-build"),
        phase("controls-and-replicas"),
        phase("pass-planning"),
    );
    set(&mut m, "core.prepare_ms", graph + controls + planning, n);
    set(&mut m, "core.prep.graph_build_ms", graph, n);
    set(&mut m, "core.prep.controls_ms", controls, n);
    set(&mut m, "core.prep.pass_planning_ms", planning, n);
    // Structure-preserving edits keep the clusters of the cold check.
    set(&mut m, "core.clusters", tr.count_mean("core.clusters"), 1);
    set(
        &mut m,
        "core.cluster_passes",
        tr.count_mean("core.cluster_passes"),
        1,
    );

    let applies = tr.calls("eco.apply");
    set(
        &mut m,
        "eco.apply_us",
        tr.mean_self_ms("eco.apply") * 1e3,
        applies,
    );
    let request_ns = |verb: &str, stage: &str| {
        server_mean_ns(
            text,
            "hb_request_nanoseconds",
            &[("verb", verb), ("stage", stage)],
        )
    };
    let handle = request_ns("eco", "handle") / 1e6;
    let wait = request_ns("eco", "lock_wait") / 1e6;
    let ecos = edit.eco_ms.len();
    set(&mut m, "server.eco_handle_ms", handle, ecos);
    set(&mut m, "server.eco_wait_ms", wait, ecos);
    set(
        &mut m,
        "server.eco_rest_ms",
        mean(&edit.eco_ms) - handle - wait,
        ecos,
    );
    let reads = edit.read_us.len() + watched.latency_us.len();
    set(
        &mut m,
        "server.read_handle_us",
        request_ns("slack", "handle") / 1e3,
        reads,
    );
    set(
        &mut m,
        "server.load_ms",
        request_ns("load", "handle") / 1e6,
        2,
    );
    let late = watched.late_ms.len();
    set(&mut m, "loadgen.late_ms", mean(&watched.late_ms), late);
    m
}
