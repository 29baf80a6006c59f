//! `serve_mixed`: set-up trains a small model, saves its full state
//! (CSC2) and boots `cascade_serve::Server` in a child process with its
//! WAL in the run's disk-backed scratch directory. Then one connection
//! sends `/predict` open-loop at a fixed rate, timed from each request's
//! due time, while a second connection is a closed-loop producer that
//! `/ingest`s skewed event batches, sending the next only after the
//! previous one is acked. Writes and reads contend through the same
//! model and engine, so a gain for one that costs the other shows.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cascade_core::train;
use cascade_models::{load_checkpoint, save_state, MemoryTgnn};
use cascade_serve::{Engine, EngineConfig, Server};
use cascade_store::ChunkWriter;
use cascade_tgraph::{Dataset, Event, NodeId, SynthConfig};
use cascade_util::{DetRng, Json};

use crate::host::{mean, median, peak_rss_mib, quantile};
use crate::http::Conn;
use crate::trace::{self, span};
use crate::{stream_seed, Outcome, Run, STREAMS};

/// Hidden first argument that turns the benchmark binary into the server.
pub const CHILD_FLAG: &str = "--serve-child";
/// Share of the WIKI profile the served model is trained on.
const SCALE: f64 = 0.3;
const FEATURE_DIM: usize = 8;
/// Open-loop `/predict` rate, requests per second.
const PREDICT_RATE: f64 = 100.0;
const CANDIDATES: usize = 8;
/// Events per `/ingest` request.
const INGEST_BATCH: usize = 64;
/// Ingest rate, events per second, that sizes the producer's fixed work
/// (near this workload's rate on a 2-core Xeon host).
const NOMINAL_INGEST_RATE: f64 = 6000.0;
/// The `cascade_serve` binary's defaults: WAL frame unit and snapshot period.
const WAL_CHUNK: usize = 256;
const SNAPSHOT_EVERY: usize = 4096;
const HTTP_WORKERS: usize = 2;

fn engine_config(dir: &Path) -> EngineConfig {
    EngineConfig::new(dir.join("serve.wal"), dir.join("serve_state.ckpt"))
        .with_wal_chunk(WAL_CHUNK)
        .with_snapshot_every(SNAPSHOT_EVERY)
}

fn model(nodes: usize, seed: u64) -> MemoryTgnn {
    MemoryTgnn::new(crate::wiki::model_config(), nodes, FEATURE_DIM, seed)
}

/// The server process: `--serve-child <ckpt> <nodes> <seed> <dir>`.
/// Prints `listening <addr>`, serves until stdin closes, then shuts down.
pub fn child_main(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut next = |what: &str| args.next().ok_or_else(|| format!("missing {}", what));
    let ckpt = PathBuf::from(next("checkpoint")?);
    let nodes: usize = next("nodes")?.parse().map_err(|_| "bad node count")?;
    let seed: u64 = next("seed")?.parse().map_err(|_| "bad seed")?;
    let dir = PathBuf::from(next("dir")?);
    let mut m = model(nodes, seed);
    load_checkpoint(&mut m, &ckpt).map_err(|e| e.to_string())?;
    let engine = Engine::open(m, engine_config(&dir)).map_err(|e| e.to_string())?;
    let server = Server::start(engine, "127.0.0.1:0", HTTP_WORKERS).map_err(|e| e.to_string())?;
    println!("listening {}", server.addr());
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
    Ok(())
}

/// A running server child; killed and reaped on drop if not stopped.
struct ServerProc {
    child: std::process::Child,
    addr: SocketAddr,
}

impl ServerProc {
    fn spawn(ckpt: &Path, nodes: usize, seed: u64, dir: &Path) -> Result<ServerProc, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg(CHILD_FLAG)
            .arg(ckpt)
            .arg(nodes.to_string())
            .arg(seed.to_string())
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the server process: {}", e))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        let mut proc = ServerProc {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match (read, addr) {
            (Ok(_), Some(a)) => proc.addr = a,
            _ => {
                return Err(format!(
                    "server process did not report its address (got {:?})",
                    line.trim()
                ))
            }
        }
        // Ready when /stats answers.
        let mut conn = Conn::connect(proc.addr).map_err(|e| e.to_string())?;
        match conn.request("GET", "/stats", "") {
            Ok((200, _)) => Ok(proc),
            other => Err(format!("server /stats did not answer: {:?}", other)),
        }
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(Some(self.child.id()))
    }

    /// Closes the child's stdin (its shutdown signal) and waits for it.
    fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server process exited with {}", status))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Setup {
    data: Dataset,
    seed: u64,
    ckpt: PathBuf,
    val_loss: f32,
    val_ap: f32,
}

/// Trains the served model on input stream `i` and saves its full state.
fn set_up(run: &Run, i: usize) -> Result<Setup, String> {
    let seed = stream_seed(run.seed, i);
    let data = SynthConfig::wiki()
        .with_scale(SCALE)
        .with_node_scale(SCALE.powf(0.75))
        .with_feature_dim(FEATURE_DIM)
        .generate(seed);
    let mut m = model(data.num_nodes(), seed);
    let report = train(
        &mut m,
        &data,
        &mut crate::wiki::scheduler(seed),
        &crate::wiki::train_config(1),
    );
    let ckpt = run.dir.join(format!("model-{}.csc", i));
    save_state(&m, &ckpt, 0).map_err(|e| e.to_string())?;
    Ok(Setup {
        data,
        seed,
        ckpt,
        val_loss: report.val_loss,
        val_ap: report.val_ap,
    })
}

/// Deterministic skewed traffic: hub-heavy sources, increasing times.
struct Traffic {
    rng: DetRng,
    nodes: usize,
    time: f64,
}

impl Traffic {
    fn node(&mut self, power: f64) -> u32 {
        ((self.rng.f64().powf(power) * self.nodes as f64) as usize).min(self.nodes - 1) as u32
    }

    fn ingest_body(&mut self, batch: usize) -> String {
        let mut body = String::from("{\"events\":[");
        for i in 0..batch {
            self.time += 1.0 + self.rng.f64();
            let (src, dst) = (self.node(3.0), self.node(1.5));
            let feats: Vec<String> = (0..FEATURE_DIM)
                .map(|_| format!("{:.4}", self.rng.range_f32(-1.0, 1.0)))
                .collect();
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "{{\"src\":{},\"dst\":{},\"time\":{},\"features\":[{}]}}",
                src,
                dst,
                self.time,
                feats.join(",")
            ));
        }
        body.push_str("]}");
        body
    }

    fn predict_body(&mut self, time: f64) -> String {
        let src = self.node(3.0);
        let dsts: Vec<String> = (0..CANDIDATES)
            .map(|_| self.node(1.0).to_string())
            .collect();
        format!(
            "{{\"src\":{},\"dsts\":[{}],\"time\":{}}}",
            src,
            dsts.join(","),
            time
        )
    }
}

#[derive(Default)]
struct Phase {
    predict_ms: Vec<f64>,
    late_ms: Vec<f64>,
    predict_sent: usize,
    predict_ok: usize,
    ingest_ms: Vec<f64>,
    ingest_sent: usize,
    ingest_ok: usize,
    acked: usize,
    ingest_wall: f64,
    problems: Vec<String>,
}

impl Phase {
    /// Pools another phase's samples and counts into this one.
    fn absorb(&mut self, other: Phase) {
        self.predict_ms.extend(other.predict_ms);
        self.late_ms.extend(other.late_ms);
        self.predict_sent += other.predict_sent;
        self.predict_ok += other.predict_ok;
        self.ingest_ms.extend(other.ingest_ms);
        self.ingest_sent += other.ingest_sent;
        self.ingest_ok += other.ingest_ok;
        self.acked += other.acked;
        self.ingest_wall += other.ingest_wall;
        self.problems.extend(other.problems);
    }
}

/// One mixed phase against the server at `addr`. The producer sends a
/// fixed number of batches, sized so the phase lasts about `seconds` at
/// [`NOMINAL_INGEST_RATE`]; `/predict` runs open-loop until it is done.
/// Fixed work keeps the server's retained state, and so its memory,
/// the same from run to run.
fn mixed_phase(
    addr: SocketAddr,
    seconds: f64,
    seed: u64,
    nodes: usize,
    start_time: f64,
) -> Result<Phase, String> {
    let batches = (seconds * NOMINAL_INGEST_RATE / INGEST_BATCH as f64).ceil() as usize;
    let latest = Arc::new(AtomicU64::new(start_time.to_bits()));
    let done = Arc::new(AtomicBool::new(false));
    // Bodies are built before the clock starts, so the producer's own
    // formatting does not compete with the server for the two cores.
    let mut traffic = Traffic {
        rng: DetRng::new(seed ^ 0x1D6E),
        nodes,
        time: start_time,
    };
    let bodies: Vec<(String, f64)> = (0..batches)
        .map(|_| {
            let body = traffic.ingest_body(INGEST_BATCH);
            (body, traffic.time)
        })
        .collect();
    let producer = {
        let latest = latest.clone();
        let done = done.clone();
        std::thread::spawn(move || -> Result<Phase, String> {
            let result = (|| {
                let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
                let mut p = Phase::default();
                let t = Instant::now();
                for (body, time) in &bodies {
                    let _g = span("http.ingest");
                    let sent = Instant::now();
                    p.ingest_sent += 1;
                    match conn.request("POST", "/ingest", body) {
                        Ok((200, resp)) => {
                            p.ingest_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                            let acked = Json::parse(&resp)
                                .ok()
                                .and_then(|j| j.get("acked").and_then(Json::as_usize));
                            if acked == Some(INGEST_BATCH) {
                                p.ingest_ok += 1;
                                p.acked += INGEST_BATCH;
                            } else {
                                p.problems
                                    .push(format!("ingest acked {:?} of {}", acked, INGEST_BATCH));
                            }
                            latest.store(time.to_bits(), Ordering::Relaxed);
                        }
                        Ok(other) => p.problems.push(format!("ingest answered {:?}", other)),
                        Err(e) => {
                            p.problems.push(format!("ingest failed: {}", e));
                            break;
                        }
                    }
                }
                p.ingest_wall = t.elapsed().as_secs_f64();
                Ok(p)
            })();
            done.store(true, Ordering::SeqCst);
            result
        })
    };

    let mut p = Phase::default();
    let mut traffic = Traffic {
        rng: DetRng::new(seed ^ 0x9E37),
        nodes,
        time: start_time,
    };
    let result = (|| -> Result<(), String> {
        let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        for i in 0.. {
            if done.load(Ordering::SeqCst) {
                break;
            }
            let due = t0 + Duration::from_secs_f64(i as f64 / PREDICT_RATE);
            let now = Instant::now();
            if due > now {
                let _g = span("gen.idle");
                std::thread::sleep(due - now);
            }
            let _g = span("http.predict");
            p.late_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let body = traffic.predict_body(f64::from_bits(latest.load(Ordering::Relaxed)));
            p.predict_sent += 1;
            match conn.request("POST", "/predict", &body) {
                Ok((200, resp)) => {
                    p.predict_ms
                        .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                    let scores = Json::parse(&resp).ok().and_then(|j| {
                        j.get("scores").and_then(Json::as_arr).map(|a| {
                            a.iter()
                                .map(|v| v.as_f64().unwrap_or(f64::NAN))
                                .collect::<Vec<_>>()
                        })
                    });
                    match scores {
                        Some(s) if s.len() == CANDIDATES && s.iter().all(|v| v.is_finite()) => {
                            p.predict_ok += 1
                        }
                        other => p.problems.push(format!("predict returned {:?}", other)),
                    }
                }
                Ok(other) => p.problems.push(format!("predict answered {:?}", other)),
                Err(e) => return Err(format!("predict failed: {}", e)),
            }
        }
        Ok(())
    })();
    let ingest = producer
        .join()
        .map_err(|_| "ingest thread panicked".to_string())??;
    result?;
    p.absorb(ingest);
    Ok(p)
}

fn stats_acked(addr: SocketAddr) -> Result<usize, String> {
    let (status, body) = Conn::connect(addr)
        .and_then(|mut c| c.request("GET", "/stats", ""))
        .map_err(|e| e.to_string())?;
    Json::parse(&body)
        .ok()
        .and_then(|j| j.get("events_acked").and_then(Json::as_usize))
        .filter(|_| status == 200)
        .ok_or_else(|| format!("bad /stats answer {} {}", status, body))
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let streams = if run.trace { 1 } else { STREAMS };
    // Each stream gets its own server and a quarter of the run: a run
    // samples several boots and reports medians across them. A traced
    // run gives its one server an untraced and a traced quarter.
    let seconds = run.seconds / STREAMS as f64;
    let mut setups = Vec::new();
    let mut vals = Vec::new();
    let mut rates = Vec::new();
    let mut rss = Vec::new();
    let mut all = Phase::default();
    for i in 0..streams {
        let t = Instant::now();
        let setup = set_up(run, i)?;
        // A fresh WAL directory per boot: the engine replays an existing
        // log, which would make later boots differ from the first.
        let server = ServerProc::spawn(
            &setup.ckpt,
            setup.data.num_nodes(),
            setup.seed,
            &run.dir.join(format!("wal{}", i)),
        )?;
        setups.push(t.elapsed().as_secs_f64());
        out.check(
            setup.val_loss.is_finite() && (0.0..=1.0).contains(&setup.val_ap),
            || {
                format!(
                    "served model validation out of range: loss {}, AP {}",
                    setup.val_loss, setup.val_ap
                )
            },
        );
        vals.push((setup.val_loss as f64, setup.val_ap as f64));

        let start_time = setup.data.stream().events().last().map_or(0.0, |e| e.time);
        let p = mixed_phase(
            server.addr,
            seconds,
            setup.seed,
            setup.data.num_nodes(),
            start_time,
        )?;
        let acked = stats_acked(server.addr)?;
        out.check(acked == p.acked, || {
            format!(
                "/stats events_acked {} but {} were acked to the client",
                acked, p.acked
            )
        });
        rates.push(p.acked as f64 / p.ingest_wall);
        if run.trace {
            traced(
                &mut out,
                run,
                &server,
                &setup,
                seconds,
                p.acked,
                median(&p.predict_ms),
            )?;
        }
        rss.push(server.peak_rss_mib().unwrap_or(0.0));
        server.stop()?;
        all.absorb(p);
    }
    out.set("setup_s", median(&setups));
    out.set(
        "val_loss",
        mean(&vals.iter().map(|v| v.0).collect::<Vec<_>>()),
    );
    out.set(
        "val_ap",
        mean(&vals.iter().map(|v| v.1).collect::<Vec<_>>()),
    );
    out.set("peak_rss_mb", median(&rss));
    for problem in all.problems.iter().take(5) {
        out.check(false, || problem.clone());
    }
    let p = all;
    out.attempted = p.predict_sent + p.ingest_sent;
    out.failed = (p.predict_sent - p.predict_ok) + (p.ingest_sent - p.ingest_ok);
    let rate = median(&rates);
    eprintln!(
        "serve_mixed: predict p50 {:.3} ms p99 {:.3} ms ({} samples); ingest {:.0} ev/s, p99 {:.3} ms ({} requests)",
        median(&p.predict_ms),
        quantile(&p.predict_ms, 0.99),
        p.predict_ms.len(),
        rate,
        quantile(&p.ingest_ms, 0.99),
        p.ingest_ms.len()
    );
    out.set("events_per_s", rate);
    out.set("ingest_events_per_s", rate);
    out.set("predict_p50_ms", median(&p.predict_ms));
    out.set("predict_p99_ms", quantile(&p.predict_ms, 0.99));
    out.set("predict_samples", p.predict_ms.len() as f64);
    out.set("ingest_p99_ms", quantile(&p.ingest_ms, 0.99));
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("serve.predict_sent", p.predict_sent as f64);
    out.set("serve.predict_ok", p.predict_ok as f64);
    out.set("serve.ingest_sent", p.ingest_sent as f64);
    out.set("serve.ingest_ok", p.ingest_ok as f64);
    out.set("gen.late_p99_ms", quantile(&p.late_ms, 0.99));
    Ok(out)
}

fn traced(
    out: &mut Outcome,
    run: &Run,
    server: &ServerProc,
    setup: &Setup,
    seconds: f64,
    acked_before: usize,
    untraced_p50: f64,
) -> Result<(), String> {
    let nodes = setup.data.num_nodes();
    trace::enable();
    let driver = trace::thread_id();
    let t0 = trace::now_ns();
    // The ingest stream continues where the untraced phase stopped.
    let start_time = setup.data.stream().events().last().map_or(0.0, |e| e.time) + 1e9;
    let p = mixed_phase(server.addr, seconds, run.seed ^ 1, nodes, start_time)?;
    let probes = probe(&run.dir.join("probe"), setup, nodes)?;
    let t1 = trace::now_ns();
    trace::disable();
    let acked = stats_acked(server.addr)?;
    out.check(acked == acked_before + p.acked, || {
        format!(
            "/stats events_acked {} after the traced phase, expected {}",
            acked,
            acked_before + p.acked
        )
    });
    out.check(p.problems.is_empty(), || {
        format!("traced phase: {:?}", p.problems.first())
    });

    let (engine_ms, sync_ms, score_us) = probes;
    out.set("serve.engine_ingest_ms", engine_ms);
    out.set("serve.wal_sync_ms", sync_ms);
    out.set("serve.score_us", score_us);
    out.set("serve.http_overhead_us", untraced_p50 * 1e3 - score_us);
    out.set(
        "trace.overhead_frac",
        median(&p.predict_ms) / untraced_p50 - 1.0,
    );
    let spans = trace::drain();
    let t = trace::self_times(&spans, driver, t0, t1);
    out.set(
        "trace.residual_frac",
        t.residual as f64 / t.wall.max(1) as f64,
    );
    let table = trace::table(&t, &trace::off_thread_busy(&spans, driver, t0, t1));
    run.write_trace("serve_mixed", &spans, &table)
}

/// Direct in-process probes of the layers under the HTTP front end:
/// (`Engine::ingest` p50 ms, WAL push+sync p50 ms, `score_links` p50 µs).
fn probe(dir: &Path, setup: &Setup, nodes: usize) -> Result<(f64, f64, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let seed = setup.seed;
    let mut m = model(nodes, seed);
    load_checkpoint(&mut m, &setup.ckpt).map_err(|e| e.to_string())?;
    let mut engine = Engine::open(m, engine_config(dir)).map_err(|e| e.to_string())?;
    let mut rng = DetRng::new(seed ^ 0x5EED);
    let mut time = 0.0;
    let mut batch = || {
        let mut events = Vec::with_capacity(INGEST_BATCH);
        let mut feats = Vec::with_capacity(INGEST_BATCH * FEATURE_DIM);
        for _ in 0..INGEST_BATCH {
            time += 1.0;
            let src = rng.index(nodes) as u32;
            let dst = rng.index(nodes) as u32;
            events.push(Event::new(src, dst, time));
            feats.extend((0..FEATURE_DIM).map(|_| rng.range_f32(-1.0, 1.0)));
        }
        (events, feats)
    };
    const REPS: usize = 50;
    let mut ingest = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (events, feats) = batch();
        let _g = span("serve.engine_ingest");
        let t = Instant::now();
        let ack = engine.ingest(&events, &feats).map_err(|e| e.to_string())?;
        ingest.push(t.elapsed().as_secs_f64() * 1e3);
        if ack.acked != INGEST_BATCH {
            return Err(format!("engine acked {} of {}", ack.acked, INGEST_BATCH));
        }
    }
    let mut writer = ChunkWriter::create(&dir.join("sync.wal"), nodes, FEATURE_DIM, WAL_CHUNK)
        .map_err(|e| e.to_string())?;
    let mut sync = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (events, feats) = batch();
        let _g = span("serve.wal_sync");
        let t = Instant::now();
        for (i, e) in events.iter().enumerate() {
            writer
                .push(*e, &feats[i * FEATURE_DIM..(i + 1) * FEATURE_DIM])
                .map_err(|e| e.to_string())?;
        }
        writer.sync().map_err(|e| e.to_string())?;
        sync.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let snap = engine.shared().snapshot();
    let mut score = Vec::with_capacity(500);
    let dsts: Vec<NodeId> = (0..CANDIDATES)
        .map(|i| NodeId((i * 7 % nodes) as u32))
        .collect();
    for i in 0..500 {
        let _g = span("serve.score");
        let t = Instant::now();
        let s = snap
            .model
            .score_links(NodeId((i % nodes) as u32), &dsts, time, &snap.feats);
        score.push(t.elapsed().as_secs_f64() * 1e6);
        if s.len() != CANDIDATES || s.iter().any(|v| !v.is_finite()) {
            return Err(format!("score_links returned {:?}", s));
        }
    }
    Ok((median(&ingest), median(&sync), median(&score)))
}
