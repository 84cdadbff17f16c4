//! The daemon and batch phases: the same request rounds through
//! `core::serve::serve` on a unix socket (closed loop, two connections,
//! two workers) and through `run_batch` with two workers.

use crate::service::Request;
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xmlmap_core::serve::encode_request;
use xmlmap_core::{
    parse_jobfile, render_batch, run_batch, run_job, Endpoint, EngineContext, JobParser, JobResult,
    Response, ServeClient, ServeConfig, ServeSummary, ShutdownHandle,
};

/// Worker threads of the daemon and of `run_batch`, and client
/// connections of the closed loop.
pub const WORKERS: usize = 2;

pub struct Daemon {
    pub ctx: Arc<EngineContext>,
    shutdown: ShutdownHandle,
    thread: JoinHandle<std::io::Result<ServeSummary>>,
    clients: Vec<ServeClient>,
}

impl Daemon {
    /// Starts `serve` on a socket at `sock` (relative paths resolve in
    /// the working directory) with job paths resolved under `root`, and
    /// connects the loop's clients.
    pub fn start(root: &Path, sock: PathBuf) -> std::io::Result<Daemon> {
        let _ = std::fs::remove_file(&sock);
        let ctx = Arc::new(EngineContext::new());
        let shutdown = ShutdownHandle::new();
        let endpoint = Endpoint::Unix(sock);
        let cfg = ServeConfig {
            workers: WORKERS,
            deadline_ms: 0,
            queue_depth: 0,
            root: root.to_path_buf(),
        };
        let thread = {
            let (ctx, shutdown, endpoint) = (Arc::clone(&ctx), shutdown.clone(), endpoint.clone());
            std::thread::spawn(move || xmlmap_core::serve(&endpoint, &ctx, &cfg, &shutdown))
        };
        let mut clients = Vec::new();
        for _ in 0..WORKERS {
            match ServeClient::connect_with_retry(&endpoint, Duration::from_secs(20)) {
                Ok(c) => clients.push(c),
                Err(e) => {
                    shutdown.raise();
                    let _ = thread.join();
                    return Err(e);
                }
            }
        }
        Ok(Daemon {
            ctx,
            shutdown,
            thread,
            clients,
        })
    }

    /// Closes the connections, drains the daemon and waits for it.
    pub fn stop(mut self) -> std::io::Result<ServeSummary> {
        self.clients.clear();
        self.shutdown.raise();
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("serve thread panicked"))?
    }
}

/// One request's reply as the closed loop saw it.
pub struct Reply {
    pub start: Instant,
    pub end: Instant,
    /// Server-side time the daemon reports (`elapsed_us`).
    pub server_us: f64,
    /// `encode_request` plus `Response::parse` of the reply, timed again
    /// after the round (traced run only).
    pub frame_us: f64,
    pub result: Result<JobResult, String>,
}

impl Reply {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Sends one round over the daemon's connections, request `i` on
/// connection `i % WORKERS`, each connection waiting for its reply before
/// sending the next. Returns the replies in request order and the round's
/// wall time in seconds.
pub fn daemon_round(d: &mut Daemon, reqs: &[Request], probe_frames: bool) -> (Vec<Reply>, f64) {
    let n = d.clients.len();
    let start = Instant::now();
    let mut per_client: Vec<Vec<(usize, Reply)>> = std::thread::scope(|s| {
        let handles: Vec<_> = d
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in (c..reqs.len()).step_by(n) {
                        let line = reqs[i].line.as_str();
                        let a = Instant::now();
                        let r = client.roundtrip(line, 0);
                        let b = Instant::now();
                        let (server_us, result, raw) = match r {
                            Ok(resp) => (resp.elapsed_us as f64, Ok(resp.result), resp.raw),
                            Err(e) => (0.0, Err(e.to_string()), String::new()),
                        };
                        let frame_us = if probe_frames {
                            let f = Instant::now();
                            std::hint::black_box(encode_request(i as u64 + 1, 0, line));
                            let _ = std::hint::black_box(Response::parse(raw.as_bytes()));
                            f.elapsed().as_secs_f64() * 1e6
                        } else {
                            0.0
                        };
                        out.push((
                            i,
                            Reply {
                                start: a,
                                end: b,
                                server_us,
                                frame_us,
                                result,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut replies: Vec<(usize, Reply)> = per_client.drain(..).flatten().collect();
    replies.sort_by_key(|(i, _)| *i);
    (replies.into_iter().map(|(_, r)| r).collect(), wall)
}

/// Per-job timings of a traced batch round.
pub struct BatchTimes {
    pub parse_us: Vec<f64>,
    pub run_us: Vec<f64>,
    pub render_us: f64,
}

/// One round through the batch driver over `ctx`: `parse_jobfile`, then
/// `run_batch` on `WORKERS` threads, then `render_batch`. Returns the
/// results, the wall time in seconds and, with the tracer on, per-job
/// times: each job line parsed on its own, then `run_job` timed per job
/// on the same fan-out `run_batch` uses.
pub fn batch_round(
    t: &mut Tracer,
    ctx: &EngineContext,
    root: &Path,
    reqs: &[Request],
) -> (Result<Vec<JobResult>, String>, f64, Option<BatchTimes>) {
    let text: String = reqs.iter().map(|r| format!("{}\n", r.line)).collect();
    if !t.enabled() {
        let start = Instant::now();
        let out = parse_jobfile(&text, root)
            .map_err(|e| e.join("; "))
            .map(|jobs| {
                let results = run_batch(ctx, &jobs, WORKERS);
                std::hint::black_box(render_batch(&jobs, &results));
                results
            });
        return (out, start.elapsed().as_secs_f64(), None);
    }
    let start = Instant::now();
    let (out, _) = t.op("op.batch_round", |t| {
        let root_span = t.current();
        let mut parser = JobParser::new(root);
        let mut jobs = Vec::new();
        let mut parse_us = Vec::new();
        for r in reqs {
            let a = Instant::now();
            let job = parser.parse(&r.line);
            let b = Instant::now();
            t.record("core.batch.parse", root_span, a, b);
            parse_us.push((b - a).as_secs_f64() * 1e6);
            match job {
                Ok(j) => jobs.push(j),
                Err(e) => return Err(e),
            }
        }
        let timed = xmlmap_par::par_map_workers(&jobs, WORKERS, |job| {
            let a = Instant::now();
            let r = run_job(ctx, job);
            (r, a, Instant::now())
        });
        let mut results = Vec::new();
        let mut run_us = Vec::new();
        for (job, (r, a, b)) in jobs.iter().zip(timed) {
            let verb = job.label.split_whitespace().next().unwrap_or("?");
            t.record(&format!("core.batch.run_job.{verb}"), root_span, a, b);
            run_us.push((b - a).as_secs_f64() * 1e6);
            results.push(r);
        }
        let a = Instant::now();
        let (rendered, _) = t.span("core.batch.render", |_| render_batch(&jobs, &results));
        std::hint::black_box(rendered);
        let render_us = a.elapsed().as_secs_f64() * 1e6;
        Ok((
            results,
            BatchTimes {
                parse_us,
                run_us,
                render_us,
            },
        ))
    });
    let wall = start.elapsed().as_secs_f64();
    match out {
        Ok((results, times)) => (Ok(results), wall, Some(times)),
        Err(e) => (Err(e), wall, None),
    }
}
