//! End-to-end and per-layer benchmark of the xmlmap user-visible paths.
//!
//! ```text
//! pathbench --workload <padded|dense|deep|service> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale tiny]
//! ```
//!
//! Every workload drives four paths in process on inputs made from the
//! seed: the tree chase, the streaming chase, a delta storm, and request
//! rounds through the daemon with the batch driver beside it. Every
//! output is checked. `--trace 0` prints the end-to-end metrics; `--trace
//! 1` records layer spans and prints the per-layer metrics. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Files (the request pool, the socket, spans and samples) go
//! under `.pathbench_out/` in the working directory. See README.md.

mod clock;
mod daemon;
mod inputs;
mod paths;
mod service;
mod stats;
mod trace;

use clock::{Clock, StealWindows};
use daemon::Daemon;
use inputs::{Family, Scale, StormGen, Workload};
use paths::Probes;
use rand::prelude::*;
use service::{Pool, Request};
use stats::{median, summarize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use xmlmap_core::{EngineContext, IncrementalChase, JobResult, Mapping};
use xmlmap_trees::xml;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest ops per phase, whatever `--seconds` says.
const MIN_OPS: usize = 3;
/// Ops per path measured for peak RSS.
const RSS_OPS: usize = 5;
/// Stream ops per input size for the doubling ratios.
const DOUBLING_OPS: usize = 5;
/// Untimed warm-up steps per phase (stream, chase, delta, service).
const WARM_OPS: [usize; 4] = [6, 6, 2, 2];
/// Ops whose spans the span file keeps (the report covers all of them);
/// bounds the file at a few MB per traced run.
const SPAN_FILE_OPS: u64 = 2000;
/// Share of an op's time its layer spans may leave uncovered.
const TRACE_TOLERANCE: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed needs a number")?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|_| "--seconds needs a number")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        scale: match map.get("--scale").copied() {
            None | Some("full") => Scale::Full,
            Some("tiny") => Scale::Tiny,
            Some(other) => return Err(format!("unknown scale {other}")),
        },
    })
}

/// Ops attempted and failed, with the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 10 {
                self.notes.push(what());
            }
        }
    }
}

/// Everything one set-up makes, ready for the measured phases.
struct Setup {
    ctx: EngineContext,
    probes: Probes,
    doc: String,
    half_doc: String,
    storms: StormGen,
    pool: Pool,
    daemon: Daemon,
    batch_ctx: EngineContext,
    /// The first chase op's output: what every later chase and stream op
    /// of the main document must print.
    expected: String,
}

fn check_replies(tally: &mut Tally, reqs: &[Request], results: &[Result<JobResult, String>]) {
    for (r, got) in reqs.iter().zip(results) {
        let ok = matches!(got, Ok(res) if r.expect.holds(res));
        tally.op(ok, || {
            format!("request `{}`: expected {:?}, got {got:?}", r.line, r.expect)
        });
    }
}

/// The workload's mapping and main document, and the seeded generator
/// the rest of its inputs are drawn from.
fn main_input(args: &Args, fam: Family) -> (Arc<Mapping>, String, StdRng) {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let (mapping, doc) = match fam {
        Family::Exchange { main, .. } => (
            inputs::exchange_mapping(),
            inputs::exchange_doc(main, &mut rng),
        ),
        Family::Chain { depth, .. } => {
            (inputs::chain_mapping(), inputs::chain_doc(depth, &mut rng))
        }
    };
    (mapping, doc, rng)
}

/// Peak RSS of the stream and chase paths, first thing in the process
/// and on a context of its own: the process then holds the document, the
/// mapping's compiled artifacts and what one warm op of each path left,
/// as an `xmlmap stream --chase` or `xmlmap chase` run does, and not the
/// daemon, the request pool or what earlier set-ups left in the heap.
/// Trimming the heap before an op makes it fault its pages in afresh, so
/// these ops are not among the timed ones.
fn peak_rss(args: &Args, tally: &mut Tally, rec: &mut Record) {
    let (mapping, doc, _) = main_input(args, inputs::family(args.workload, args.scale));
    let ctx = EngineContext::new();
    let probes = Probes::new(&ctx, mapping);
    let mut off = Tracer::new(false);
    // Op 0 compiles and warms; ops 1 to RSS_OPS are measured.
    for k in 0..=RSS_OPS {
        stats::reset_peak_rss();
        if k > 0 {
            rec.push("rss_base_mb", stats::rss_mb());
        }
        let r = paths::stream_op(&mut off, &ctx, &probes, &doc);
        if k > 0 {
            rec.push("stream_rss_mb", stats::peak_rss_mb());
        }
        tally.op(r.is_ok(), || format!("stream op: {:?}", r.as_ref().err()));
        stats::reset_peak_rss();
        let r = paths::chase_op(&mut off, &ctx, &probes, &doc);
        if k > 0 {
            rec.push("chase_rss_mb", stats::peak_rss_mb());
        }
        tally.op(r.is_ok(), || format!("chase op: {:?}", r.as_ref().err()));
    }
}

/// One set-up: inputs from the seed, the request pool with its oracle
/// answers, the daemon, every warm request answered once by the daemon
/// and the batch driver, the cold compiles of the chase, stream and delta
/// artifacts, and the first chase op.
fn setup(args: &Args, out: &Path, k: usize, tally: &mut Tally) -> Result<Setup, String> {
    let fam = inputs::family(args.workload, args.scale);
    let (mapping, doc, mut rng) = main_input(args, fam);
    let (half_doc, storms) = match fam {
        Family::Exchange { main, half, .. } => (
            inputs::exchange_doc(half, &mut rng),
            inputs::exchange_storms(main, 2, args.seed),
        ),
        Family::Chain { depth, .. } => (
            inputs::chain_doc(depth / 2, &mut rng),
            inputs::chain_storms(depth, 2, args.seed),
        ),
    };
    let pool = Pool::build(args.workload, fam, &out.join(format!("pool{k}")), args.seed);
    let mut daemon = Daemon::start(&pool.dir, out.join(format!("s{k}.sock")))
        .map_err(|e| format!("starting the daemon: {e}"))?;
    let batch_ctx = EngineContext::new();
    let warm = pool.all_warm();
    let (replies, _) = daemon::daemon_round(&mut daemon, &warm, false);
    let results: Vec<_> = replies.into_iter().map(|r| r.result).collect();
    check_replies(tally, &warm, &results);
    let mut off = Tracer::new(false);
    let (batch, _, _) = daemon::batch_round(&mut off, &batch_ctx, &pool.dir, &warm);
    match batch {
        Ok(results) => {
            let results: Vec<_> = results.into_iter().map(Ok).collect();
            check_replies(tally, &warm, &results);
        }
        Err(e) => tally.op(false, || format!("batch parse: {e}")),
    }

    let ctx = EngineContext::new();
    ctx.chase_cache(&mapping);
    ctx.stream_chase_plan(&mapping);
    ctx.delta_plan(&mapping);
    let probes = Probes::new(&ctx, Arc::clone(&mapping));
    let first = paths::chase_op(&mut off, &ctx, &probes, &doc);
    tally.op(first.is_ok(), || {
        format!("first chase: {:?}", first.as_ref().err())
    });
    let expected = first.map(|(bytes, _)| bytes).unwrap_or_default();
    Ok(Setup {
        ctx,
        probes,
        doc,
        half_doc,
        storms,
        pool,
        daemon,
        batch_ctx,
        expected,
    })
}

/// A sample taken outside the measured phases: never dropped.
const NO_WINDOW: usize = usize::MAX;

/// Named samples and scalars gathered over one run. Each sample carries
/// the steal window it was taken in.
struct Record {
    samples: BTreeMap<&'static str, Vec<f64>>,
    windows: BTreeMap<&'static str, Vec<usize>>,
    values: BTreeMap<String, f64>,
    /// The window samples pushed now belong to.
    window: usize,
}

impl Default for Record {
    fn default() -> Record {
        Record {
            samples: BTreeMap::new(),
            windows: BTreeMap::new(),
            values: BTreeMap::new(),
            window: NO_WINDOW,
        }
    }
}

impl Record {
    fn push(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
        self.windows.entry(key).or_default().push(self.window);
    }
    /// Drops the samples of windows that are not clean.
    fn keep_clean(&mut self, clean: &[bool]) {
        for (key, v) in self.samples.iter_mut() {
            let w = &self.windows[key];
            let mut i = 0;
            v.retain(|_| {
                let keep = w[i] == NO_WINDOW || clean.get(w[i]).copied().unwrap_or(true);
                i += 1;
                keep
            });
        }
        self.windows.clear();
    }
    fn med(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |s| median(s))
    }
    fn sum(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |s| s.iter().sum())
    }
    fn set(&mut self, key: impl Into<String>, v: f64) {
        self.values.insert(key.into(), v);
    }
}

/// What the measured phases gather.
#[derive(Default)]
struct Acc {
    rec: Record,
    stream_counts: paths::StreamCounts,
    chase_counts: paths::ChaseCounts,
    run_job_us: BTreeMap<&'static str, Vec<f64>>,
}

/// Runs the four phases interleaved for `seconds`, and until phase `p`
/// has run `mins[p]` steps. Each step runs one op of the phase furthest
/// behind its share of the time, so that a burst of load on the host
/// falls on every phase alike instead of on whichever phase happened to
/// be running. Before each step the clock calibrates if due, and the
/// step's timings are scaled by its factor; the step's samples belong
/// to the steal window it starts in.
#[allow(clippy::too_many_arguments)]
fn phases(
    w: Workload,
    s: &mut Setup,
    session: &mut IncrementalChase,
    t: &mut Tracer,
    clock: &mut Clock,
    steal: &mut StealWindows,
    tally: &mut Tally,
    acc: &mut Acc,
    seconds: f64,
    mins: [usize; 4],
) {
    let m = Arc::clone(&s.probes.mapping);
    let m = &*m;
    let trace = t.enabled();
    let shares = w.shares();
    let mut spent = [0.0f64; 4];
    let mut steps = [0usize; 4];
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || (0..4).any(|p| steps[p] < mins[p]) {
        let phase = (0..4)
            .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
            .expect("four phases");
        clock.tick();
        acc.rec.window = steal.tick();
        let f = clock.factor();
        acc.rec.push("host_factor", f);
        let step = Instant::now();
        match phase {
            0 => {
                // Streaming chase.
                let r = paths::stream_op(t, &s.ctx, &s.probes, &s.doc);
                let ok = matches!(&r, Ok((bytes, _)) if *bytes == s.expected);
                tally.op(ok, || {
                    format!(
                        "stream output differs from chase output: {:?}",
                        r.as_ref().err()
                    )
                });
                if let Ok((_, c)) = r {
                    acc.rec.push("stream_ms", c.op_ms * f);
                    acc.rec.push("stream_wall_ms", c.op_ms);
                    acc.stream_counts = c;
                }
            }
            1 => {
                // Tree chase. The traced run alternates traced and
                // untraced ops, so that tracing overhead is measured
                // within one run.
                let traced = trace && steps[1] % 2 == 0;
                t.set_enabled(traced);
                let r = paths::chase_op(t, &s.ctx, &s.probes, &s.doc);
                t.set_enabled(trace);
                let ok = matches!(&r, Ok((bytes, _)) if *bytes == s.expected);
                tally.op(ok, || {
                    format!("chase output changed: {:?}", r.as_ref().err())
                });
                if let Ok((_, c)) = r {
                    acc.rec.push(
                        match (trace, traced) {
                            (false, _) => "chase_ms",
                            (true, true) => "chase_traced_ms",
                            (true, false) => "chase_untraced_ms",
                        },
                        c.op_ms * f,
                    );
                    if !trace {
                        acc.rec.push("chase_wall_ms", c.op_ms);
                    }
                    if traced || !trace {
                        acc.chase_counts = c;
                    }
                }
            }
            2 => {
                // One delta storm.
                let storm = s.storms.next_storm();
                let o = paths::storm_op(t, session, &storm);
                for &(ms, refire) in &o.applies {
                    let ms = ms * f;
                    acc.rec.push("delta_apply_ms", ms);
                    acc.rec.push(
                        if refire {
                            "apply_refire_ms"
                        } else {
                            "apply_inert_ms"
                        },
                        ms,
                    );
                    tally.op(true, String::new);
                }
                if o.applies.len() < storm.len() {
                    tally.op(false, || format!("apply failed: {:?}", o.solution));
                } else {
                    acc.rec.push("delta_solution_ms", o.solution_ms * f);
                    acc.rec.push("storm_ops", o.applies.len() as f64);
                    acc.rec.push("storm_s", o.total_s * f);
                    acc.rec.push("storm_replays", o.replays as f64);
                    // Untimed: the read must equal a from-scratch chase of
                    // the session's document, byte for byte.
                    let fresh = paths::rechase(&s.ctx, m, session.doc());
                    tally.op(o.solution.is_ok() && o.solution == fresh, || {
                        "delta solution differs from a from-scratch chase".to_string()
                    });
                }
            }
            _ => {
                // One round through the daemon and one through batch, the
                // side going first alternating round by round.
                let reqs = s.pool.next_round();
                for side in [steps[3] % 2, 1 - steps[3] % 2] {
                    if side == 0 {
                        let (replies, wall) = daemon::daemon_round(&mut s.daemon, &reqs, trace);
                        acc.rec.push("round_reqs", replies.len() as f64);
                        acc.rec.push("round_s", wall * f);
                        for (r, req) in replies.iter().zip(&reqs) {
                            acc.rec.push("req_ms", r.latency_ms() * f);
                            if req.cold {
                                acc.rec.push("req_cold_ms", r.latency_ms() * f);
                            }
                            if trace {
                                let root = t.record("op.request", None, r.start, r.end);
                                t.record("core.serve.roundtrip", root, r.start, r.end);
                                let rt_us = r.latency_ms() * 1e3;
                                acc.rec.push("roundtrip_us", rt_us);
                                acc.rec.push("frame_us", r.frame_us);
                                acc.rec.push("wait_us", rt_us - r.server_us - r.frame_us);
                            }
                        }
                        let results: Vec<_> = replies.into_iter().map(|r| r.result).collect();
                        check_replies(tally, &reqs, &results);
                    } else {
                        let (res, wall, times) =
                            daemon::batch_round(t, &s.batch_ctx, &s.pool.dir, &reqs);
                        acc.rec.push("batch_jobs", reqs.len() as f64);
                        acc.rec.push("batch_s", wall * f);
                        match res {
                            Ok(results) => {
                                let results: Vec<_> = results.into_iter().map(Ok).collect();
                                check_replies(tally, &reqs, &results);
                            }
                            Err(e) => tally.op(false, || format!("batch parse: {e}")),
                        }
                        if let Some(times) = times {
                            for (r, us) in reqs.iter().zip(&times.run_us) {
                                acc.run_job_us.entry(r.verb).or_default().push(*us);
                            }
                            for us in &times.parse_us {
                                acc.rec.push("parse_us", *us);
                            }
                            acc.rec.push("render_us", times.render_us);
                        }
                    }
                }
            }
        }
        spent[phase] += step.elapsed().as_secs_f64();
        steps[phase] += 1;
    }
}

fn run(args: &Args) -> Result<(), String> {
    let out = PathBuf::from(".pathbench_out").join(format!(
        "{}-seed{}-trace{}-{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let mut tally = Tally::default();
    let mut rec = Record::default();
    // End-to-end timings are scaled to the nominal host speed; the traced
    // run reports wall-clock times.
    let mut clock = Clock::new(!args.trace);

    // ---- peak RSS, before anything else ------------------------------------
    peak_rss(args, &mut tally, &mut rec);

    // ---- set-up, several times; the last one is kept ---------------------
    let mut setup_s = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        clock.settle();
        let start = Instant::now();
        let s = setup(args, &out, k, &mut tally)?;
        setup_s.push(start.elapsed().as_secs_f64() * clock.factor());
        if let Some(old) = kept.replace(s) {
            let old: Setup = old;
            old.daemon
                .stop()
                .map_err(|e| format!("stopping the daemon: {e}"))?;
        }
    }
    let mut s = kept.expect("at least one set-up");
    let m: Arc<Mapping> = Arc::clone(&s.probes.mapping);
    let mut t = Tracer::new(args.trace);

    let mut off = Tracer::new(false);

    // ---- the measured phases, interleaved --------------------------------
    let mut storm_doc = xml::parse(&s.doc).map_err(|e| e.to_string())?;
    let _ = m.source_dtd.normalize_attrs(&mut storm_doc);
    let open = Instant::now();
    let (mut session, _) = t.op("op.delta_open", |t| {
        t.span("core.chase.delta.open", |_| {
            s.ctx.delta_session(&m, storm_doc)
        })
        .0
    });
    rec.set(
        "core.chase.delta.open_ms",
        open.elapsed().as_secs_f64() * 1e3,
    );

    // Warm-up: the first ops of a phase grow the heap and fill caches;
    // they are checked but not measured.
    let mut discard = Acc::default();
    phases(
        args.workload,
        &mut s,
        &mut session,
        &mut off,
        &mut clock,
        &mut StealWindows::new(false),
        &mut tally,
        &mut discard,
        0.0,
        WARM_OPS,
    );
    let mut acc = Acc {
        rec,
        ..Acc::default()
    };
    let mut steal = StealWindows::new(!args.trace);
    phases(
        args.workload,
        &mut s,
        &mut session,
        &mut t,
        &mut clock,
        &mut steal,
        &mut tally,
        &mut acc,
        args.seconds,
        [MIN_OPS, MIN_OPS, 1, 2],
    );
    steal.close();
    let Acc {
        mut rec,
        stream_counts,
        chase_counts,
        run_job_us,
    } = acc;
    rec.window = NO_WINDOW;
    let clean = steal.clean();
    let steps = rec.samples.get("host_factor").map_or(0, Vec::len);
    rec.keep_clean(&clean);
    let kept_steps = rec.samples.get("host_factor").map_or(0, Vec::len);
    for &r in &steal.rates {
        rec.push("steal_ticks_per_s", r);
    }
    s.ctx.record_delta(session.stats());
    drop(session);
    let storm_ops = rec.sum("storm_ops");
    rec.set("delta_updates_per_s", storm_ops / rec.sum("storm_s"));
    rec.set(
        "core.chase.delta.replays_per_update",
        rec.sum("storm_replays") / storm_ops.max(1.0),
    );
    rec.set("req_per_s", rec.sum("round_reqs") / rec.sum("round_s"));
    rec.set(
        "batch_jobs_per_s",
        rec.sum("batch_jobs") / rec.sum("batch_s"),
    );

    // ---- untimed checks ----------------------------------------------------
    // One document per run against the interpretive chase.
    let mut src = xml::parse(&s.doc).map_err(|e| e.to_string())?;
    let _ = m.source_dtd.normalize_attrs(&mut src);
    let compiled = s.ctx.canonical_solution(&m, &src);
    let reference = xmlmap_core::chase::reference::canonical_solution(&m, &src);
    let agree = match (&compiled, &reference) {
        (Ok(a), Ok(b)) => xmlmap_trees::isomorphic_mod_nulls(a, b),
        _ => false,
    };
    tally.op(agree, || {
        "compiled and reference chase disagree".to_string()
    });

    // ---- per-layer extras (traced run) -------------------------------------
    if args.trace {
        // Doubling: the stream op on the workload's half-size input
        // against the full one (on `deep`, half the depth).
        let (mut full_ms, mut half_ms) = (Vec::new(), Vec::new());
        let (mut full_bytes, mut half_bytes) = (0u64, 0u64);
        for _ in 0..DOUBLING_OPS {
            for (doc, times, bytes) in [
                (&s.half_doc, &mut half_ms, &mut half_bytes),
                (&s.doc, &mut full_ms, &mut full_bytes),
            ] {
                let r = paths::stream_op(&mut off, &s.ctx, &s.probes, doc);
                tally.op(r.is_ok(), || {
                    format!("doubling stream op: {:?}", r.as_ref().err())
                });
                if let Ok((_, c)) = r {
                    times.push(c.op_ms);
                    *bytes = c.peak_live_bytes;
                }
            }
        }
        rec.set(
            "core.stream.depth_doubling_time_ratio",
            median(&full_ms) / median(&half_ms),
        );
        rec.set(
            "core.stream.depth_doubling_bytes_ratio",
            full_bytes as f64 / half_bytes.max(1) as f64,
        );
    }

    let engine = [&s.ctx, &*s.daemon.ctx, &s.batch_ctx].map(|c| c.stats());
    s.daemon
        .stop()
        .map_err(|e| format!("stopping the daemon: {e}"))?;

    // ---- report ------------------------------------------------------------
    let host = host_info(args);
    for line in &host {
        println!("# {line}");
    }
    println!(
        "# workload {} seed {} seconds {} trace {}; service rounds of {} requests, {:.1}% cold; {} ops per storm",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        s.pool.round_size(),
        s.pool.cold_share() * 100.0,
        s.storms.ops_per_storm()
    );
    if !args.trace {
        println!(
            "# steal: {} windows of {} s, {} clean; metrics from the {kept_steps} of {steps} \
             steps in clean windows (samples steal_ticks_per_s; see clock.rs)",
            clean.len(),
            clock::STEAL_WINDOW_S,
            clean.iter().filter(|&&c| c).count()
        );
    }
    let fail_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "# fail_ratio {fail_ratio} ({} of {} ops)",
        tally.failed, tally.attempted
    );
    for note in &tally.notes {
        println!("# FAILED: {note}");
    }
    let mut sample_lines = Vec::new();
    if !args.trace {
        println!(
            "# timings scaled to a host where the reference kernel takes {} us \
             (samples kernel_us, host_factor; see clock.rs)",
            clock::NOMINAL_US
        );
    }
    let sample_sets: Vec<(&str, &[f64])> = std::iter::once(("setup_s", setup_s.as_slice()))
        .chain(rec.samples.iter().map(|(k, v)| (*k, v.as_slice())))
        .chain((!clock.kernel_us.is_empty()).then_some(("kernel_us", clock.kernel_us.as_slice())))
        .collect();
    for (name, v) in &sample_sets {
        let q = summarize(v);
        println!(
            "# samples {name}: n={} min={:.4} q1={:.4} median={:.4} q3={:.4} p90={:.4} max={:.4}",
            q.n, q.min, q.q1, q.median, q.q3, q.p90, q.max
        );
        let list: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
        sample_lines.push(format!("\"{name}\":[{}]", list.join(",")));
    }

    let metrics: Vec<(String, f64, &str)> = if !args.trace {
        let lat = |key: &str| summarize(rec.samples.get(key).map_or(&[][..], |v| v));
        let (chase, stream, delta, req) = (
            lat("chase_ms"),
            lat("stream_ms"),
            lat("delta_apply_ms"),
            lat("req_ms"),
        );
        vec![
            ("setup_s".into(), median(&setup_s), "s"),
            ("chase_p50_ms".into(), chase.median, "ms"),
            ("chase_p90_ms".into(), chase.p90, "ms"),
            ("chase_peak_rss_mb".into(), rec.med("chase_rss_mb"), "MB"),
            ("stream_p50_ms".into(), stream.median, "ms"),
            ("stream_p90_ms".into(), stream.p90, "ms"),
            ("stream_peak_rss_mb".into(), rec.med("stream_rss_mb"), "MB"),
            (
                "delta_updates_per_s".into(),
                rec.values["delta_updates_per_s"],
                "1/s",
            ),
            ("delta_p90_ms".into(), delta.p90, "ms"),
            ("req_per_s".into(), rec.values["req_per_s"], "1/s"),
            ("req_p50_ms".into(), req.median, "ms"),
            ("req_p90_ms".into(), req.p90, "ms"),
            (
                "batch_jobs_per_s".into(),
                rec.values["batch_jobs_per_s"],
                "1/s",
            ),
            ("ok_ratio".into(), 1.0 - fail_ratio, "ratio"),
        ]
    } else {
        let self_times = span_medians(&t);
        for line in layer_report(&t) {
            println!("{line}");
        }
        let sp = |name: &str| self_times.get(name).map_or(0.0, |v| median(&v.0));
        let derived = |name: &str| self_times.get(name).map_or(0.0, |v| median(&v.1));
        let ms = |k: &str| rec.med(k);
        // Ops whose layer spans run one after another; a batch round's
        // `run_job` spans overlap, so they cannot add up to the round.
        let shares = t.unaccounted_shares(&["op.chase", "op.stream", "op.delta_storm"]);
        let within = shares.iter().filter(|&&x| x <= TRACE_TOLERANCE).count();
        println!(
            "# trace: {within} of {} ops have layer spans within {:.0}% of the op (worst {:.4})",
            shares.len(),
            TRACE_TOLERANCE * 100.0,
            shares.iter().copied().fold(0.0, f64::max)
        );
        let applies = rec.samples.get("delta_apply_ms").map_or(0, Vec::len);
        let refires = rec.samples.get("apply_refire_ms").map_or(0, Vec::len);
        let totals = |f: &dyn Fn(&xmlmap_core::CacheCounters) -> f64| -> f64 {
            engine
                .iter()
                .map(|e| {
                    [
                        e.sat,
                        e.chase,
                        e.automata,
                        e.shapes,
                        e.stream_index,
                        e.stream_plans,
                        e.stream_chase,
                        e.delta,
                    ]
                    .iter()
                    .map(f)
                    .sum::<f64>()
                })
                .sum()
        };
        let hits = totals(&|c| c.hits as f64);
        let misses = totals(&|c| c.misses as f64);
        let mut metrics: Vec<(String, f64, &str)> = vec![
            (
                "trees.sax.tokenize_ms".into(),
                sp("op.chase>trees.xml.parse>trees.sax.tokenize"),
                "ms",
            ),
            (
                "trees.sax.events".into(),
                chase_counts.events as f64,
                "count",
            ),
            (
                "trees.xml.parse_ms".into(),
                sp("op.chase>trees.xml.parse"),
                "ms",
            ),
            (
                "trees.xml.build_ms".into(),
                derived("op.chase>trees.xml.parse"),
                "ms",
            ),
            (
                "dtd.conformance.normalize_ms".into(),
                sp("op.chase>dtd.conformance.normalize"),
                "ms",
            ),
            (
                "dtd.conformance.check_ms".into(),
                sp("op.chase>core.chase.canonical_solution>dtd.conformance.check"),
                "ms",
            ),
            (
                "dtd.stream.validate_ms".into(),
                sp("op.stream>core.stream.chase_stream>dtd.stream.validate"),
                "ms",
            ),
            (
                "patterns.compiled.match_ms".into(),
                sp("op.chase>core.chase.canonical_solution>patterns.compiled.match"),
                "ms",
            ),
            (
                "patterns.compiled.tuples".into(),
                chase_counts.tuples as f64,
                "count",
            ),
            (
                "core.chase.canonical_solution_ms".into(),
                sp("op.chase>core.chase.canonical_solution"),
                "ms",
            ),
            (
                "core.chase.arena_ms".into(),
                derived("op.chase>core.chase.canonical_solution"),
                "ms",
            ),
            (
                "core.chase.firings".into(),
                stream_counts.firings as f64,
                "count",
            ),
            (
                "core.exchange.reduce_ms".into(),
                sp("op.chase>core.exchange.reduce"),
                "ms",
            ),
            (
                "trees.xml.to_string_ms".into(),
                sp("op.chase>trees.xml.to_string"),
                "ms",
            ),
            (
                "trees.tree.source_nodes".into(),
                chase_counts.source_nodes as f64,
                "count",
            ),
            (
                "trees.tree.solution_nodes".into(),
                chase_counts.solution_nodes as f64,
                "count",
            ),
            (
                "patterns.stream.enumerate_ms".into(),
                sp("op.stream>core.stream.chase_stream>patterns.stream.enumerate"),
                "ms",
            ),
            (
                "patterns.stream.peak_live_valuations".into(),
                stream_counts.peak_live_valuations as f64,
                "count",
            ),
            (
                "patterns.stream.peak_state_bytes".into(),
                stream_counts.pattern_state_bytes as f64,
                "bytes",
            ),
            (
                "core.stream.peak_depth".into(),
                stream_counts.peak_depth as f64,
                "count",
            ),
            (
                "core.stream.peak_live_bytes".into(),
                stream_counts.peak_live_bytes as f64,
                "bytes",
            ),
            (
                "core.stream.depth_doubling_time_ratio".into(),
                rec.values["core.stream.depth_doubling_time_ratio"],
                "ratio",
            ),
            (
                "core.stream.depth_doubling_bytes_ratio".into(),
                rec.values["core.stream.depth_doubling_bytes_ratio"],
                "ratio",
            ),
            (
                "core.stream.chase_stream_ms".into(),
                sp("op.stream>core.stream.chase_stream"),
                "ms",
            ),
            (
                "core.stream.complete_ms".into(),
                derived("op.stream>core.stream.chase_stream"),
                "ms",
            ),
            (
                "core.chase.delta.open_ms".into(),
                rec.values["core.chase.delta.open_ms"],
                "ms",
            ),
            (
                "core.chase.delta.apply_inert_us".into(),
                ms("apply_inert_ms") * 1e3,
                "us",
            ),
            (
                "core.chase.delta.apply_refire_us".into(),
                ms("apply_refire_ms") * 1e3,
                "us",
            ),
            (
                "core.chase.delta.solution_ms".into(),
                ms("delta_solution_ms"),
                "ms",
            ),
            (
                "core.chase.delta.refire_ratio".into(),
                refires as f64 / applies.max(1) as f64,
                "ratio",
            ),
            (
                "core.chase.delta.replays_per_update".into(),
                rec.values["core.chase.delta.replays_per_update"],
                "count",
            ),
            ("core.batch.parse_us".into(), ms("parse_us"), "us"),
        ];
        for verb in service::VERBS {
            let v = run_job_us.get(verb).map_or(0.0, |s| median(s));
            metrics.push((format!("core.batch.run_job_us.{verb}"), v, "us"));
        }
        metrics.extend([
            ("core.batch.render_us".into(), ms("render_us"), "us"),
            ("core.serve.roundtrip_us".into(), ms("roundtrip_us"), "us"),
            ("core.serve.frame_us".into(), ms("frame_us"), "us"),
            ("core.serve.wait_us".into(), ms("wait_us"), "us"),
            (
                "core.engine.hit_ratio".into(),
                hits / (hits + misses).max(1.0),
                "ratio",
            ),
            (
                "core.engine.compile_ms".into(),
                totals(&|c| c.compile_time.as_secs_f64() * 1e3),
                "ms",
            ),
            (
                "core.engine.resident_bytes".into(),
                totals(&|c| c.bytes as f64),
                "bytes",
            ),
            (
                "trace.overhead_ratio".into(),
                ms("chase_traced_ms") / ms("chase_untraced_ms"),
                "ratio",
            ),
            ("trace.unaccounted_ratio".into(), median(&shares), "ratio"),
        ]);
        let spans = out.with_extension("spans.jsonl");
        let written = t
            .write_jsonl(&spans, SPAN_FILE_OPS)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        println!(
            "# {written} of {} spans (ops 1 to {SPAN_FILE_OPS}) written to {}",
            t.spans().len(),
            spans.display()
        );
        metrics
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    let host_json: Vec<String> = host
        .iter()
        .map(|l| format!("\"{}\"", l.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    let record = format!(
        "{{\"host\":[{}],\"samples\":{{{}}},\"result\":{result}}}\n",
        host_json.join(","),
        sample_lines.join(",")
    );
    let path = out.with_extension("json");
    std::fs::write(&path, record).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let _ = std::fs::remove_dir_all(&out);
    println!("# samples written to {}", path.display());
    println!("{result}");
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Per `op>…>span` path: every span's duration and its self time
/// (duration minus children, probes included), in ms.
fn span_medians(t: &Tracer) -> BTreeMap<String, (Vec<f64>, Vec<f64>)> {
    let spans = t.spans();
    let self_us = t.self_times_us();
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    let mut out: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let path = match s.parent {
            Some(p) => format!("{}>{}", paths[p], s.name),
            None => s.name.clone(),
        };
        let row = out.entry(path.clone()).or_default();
        row.0.push(s.dur_us() / 1e3);
        row.1.push(self_us[i] / 1e3);
        paths.push(path);
    }
    out
}

/// The derived self-time table: one line per span path.
fn layer_report(t: &Tracer) -> Vec<String> {
    let mut lines = vec![format!(
        "# {:<72} {:>7} {:>12} {:>12}",
        "span (parent>child; probes are timed outside the op)", "count", "median_ms", "self_ms"
    )];
    for (path, (dur, own)) in span_medians(t) {
        lines.push(format!(
            "# {:<72} {:>7} {:>12.4} {:>12.4}",
            path,
            dur.len(),
            median(&dur),
            median(&own)
        ));
    }
    lines
}

fn host_info(args: &Args) -> Vec<String> {
    let command = |prog: &str, argv: &[&str]| {
        std::process::Command::new(prog)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = if Path::new(".git").exists() {
        command("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    vec![
        format!(
            "nproc {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        format!("cpu {cpu}"),
        format!(
            "rustc {}",
            command("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())
        ),
        format!(
            "commit {}",
            commit.unwrap_or_else(|| "unknown (not a git checkout)".to_string())
        ),
        format!("seed {}", args.seed),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pathbench: {e}");
            eprintln!(
                "usage: pathbench --workload <padded|dense|deep|service> --seed <n> \
                 --seconds <s> --trace <0|1> [--scale tiny]"
            );
            return ExitCode::from(2);
        }
    };
    // Deep chains recurse in the tree walkers; give them room.
    let worker = std::thread::Builder::new()
        .stack_size(512 << 20)
        .spawn(move || run(&args))
        .expect("spawning the benchmark thread");
    match worker.join() {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("pathbench: {e}");
            ExitCode::FAILURE
        }
        Err(_) => ExitCode::FAILURE,
    }
}
