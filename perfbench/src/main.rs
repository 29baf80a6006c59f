//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload inmem_wiki --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one named workload from a seed, checks the program's outputs,
//! and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A failed output check still prints the result (with
//! `"correct": false`) and exits 1; a run that cannot complete exits 2
//! without a result. See `perfbench/README.md` for the metric table.

mod gdelt;
mod host;
mod http;
mod serve;
mod trace;
mod wiki;
mod wrap;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use cascade_core::TrainReport;
use cascade_util::Json;

/// End-to-end metrics (untraced runs), every workload: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "ev/s"),
    ("val_loss", "BCE"),
    ("val_ap", "AP"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs). A layer that does no work on a
/// workload reports 0 there: that workload is its bypass control.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-specific user-visible figures, measured untraced inside
    // the traced run.
    ("train_events_per_s", "ev/s"),
    ("dist2_events_per_s", "ev/s"),
    ("dist2_train_loss", "BCE"),
    ("predict_p50_ms", "ms"),
    ("predict_p99_ms", "ms"),
    ("predict_samples", "count"),
    ("ingest_events_per_s", "ev/s"),
    ("ingest_p99_ms", "ms"),
    ("failed_frac", "ratio"),
    // core scheduler
    ("sched.prepare_s", "s"),
    ("sched.enter_chunk_s", "s"),
    ("sched.scan_s", "s"),
    ("sched.sgfilter_s", "s"),
    ("sched.abs_s", "s"),
    ("sched.batches", "count"),
    ("sched.mean_batch", "events"),
    ("sched.stable_frac", "ratio"),
    // models / nn / tensor
    ("model.forward_s", "s"),
    ("model.backward_s", "s"),
    ("nn.clip_s", "s"),
    ("nn.adam_s", "s"),
    ("model.apply_s", "s"),
    ("tensor.arena_reset_s", "s"),
    ("eval_s", "s"),
    ("model.residual_s", "s"),
    // store
    ("store.read_s", "s"),
    ("store.read_mb_per_s", "MB/s"),
    ("store.wait_s", "s"),
    // tgraph ingest
    ("ingest.reorder_s", "s"),
    ("ingest.dropped_dups", "count"),
    // exec
    ("exec.loader_busy_s", "s"),
    ("exec.overlap_s", "s"),
    // dist
    ("dist.speedup_2v1", "ratio"),
    ("dist.rounds", "count"),
    ("dist.allreduce_bytes_per_round", "bytes"),
    ("dist.allreduce_ms", "ms"),
    // serve
    ("serve.engine_ingest_ms", "ms"),
    ("serve.wal_sync_ms", "ms"),
    ("serve.score_us", "us"),
    ("serve.http_overhead_us", "us"),
    ("serve.predict_sent", "count"),
    ("serve.predict_ok", "count"),
    ("serve.ingest_sent", "count"),
    ("serve.ingest_ok", "count"),
    ("gen.late_p99_ms", "ms"),
    // trace health
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

const WORKLOADS: &[&str] = &["inmem_wiki", "gdelt_ooc", "serve_mixed"];

/// What one run hands back: metric values by name, operation counts,
/// and the output checks that failed (empty = correct).
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: usize,
    pub failed: usize,
    pub check_failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// Settings shared by every workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fresh per-run scratch directory (stores, WAL, snapshots).
    pub dir: PathBuf,
}

impl Run {
    /// Writes the Chrome trace and self-time table of a traced run to
    /// `.bench_out/<workload>-seed<seed>.{trace.json,selftime.txt}`.
    pub fn write_trace(
        &self,
        workload: &str,
        spans: &[trace::Span],
        table: &str,
    ) -> Result<(), String> {
        let stem = PathBuf::from(".bench_out").join(format!("{}-seed{}", workload, self.seed));
        std::fs::create_dir_all(".bench_out")
            .map_err(|e| format!("cannot create .bench_out: {}", e))?;
        let json = stem.with_extension("trace.json");
        std::fs::write(&json, trace::chrome_json(spans))
            .map_err(|e| format!("cannot write {}: {}", json.display(), e))?;
        let txt = stem.with_extension("selftime.txt");
        std::fs::write(&txt, table)
            .map_err(|e| format!("cannot write {}: {}", txt.display(), e))?;
        eprintln!("{}", table);
        eprintln!("trace written to {} and {}", json.display(), txt.display());
        Ok(())
    }
}

/// Removes the per-run scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .ok_or_else(|| format!("missing value for {}", flag))
        };
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => {
                seed = val()?
                    .parse()
                    .map_err(|_| "--seed takes an integer".to_string())?
            }
            "--seconds" => {
                seconds = val()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {}", other)),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {} (expected one of {:?})",
            workload, WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let dir = PathBuf::from(".bench_scratch").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {}", dir.display(), e))?;
    let _cleanup = ScratchDir(dir.clone());
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir,
    };
    println!(
        "{}",
        Json::Obj(vec![(
            "host".into(),
            host::stamp(&args.workload, args.seed, args.trace, &run.dir)
        )])
    );

    let outcome = match args.workload.as_str() {
        "inmem_wiki" => wiki::run(&run)?,
        "gdelt_ooc" => gdelt::run(&run)?,
        _ => serve::run(&run)?,
    };

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({})", name, value));
        }
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::from(value)),
                ("unit".into(), Json::from(*unit)),
            ]),
        ));
    }
    for failure in &outcome.check_failures {
        eprintln!("output check failed: {}", failure);
    }
    let correct = outcome.check_failures.is_empty();
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::from(correct)),
            ("attempted".into(), Json::from(outcome.attempted.max(1))),
            ("failed".into(), Json::from(outcome.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    );
    Ok(correct)
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some(serve::CHILD_FLAG) {
        argv.next();
        if let Err(e) = serve::child_main(argv) {
            eprintln!("serve child: {}", e);
            std::process::exit(2);
        }
        return;
    }
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {}", e);
            std::process::exit(2);
        }
    }
}

/// Independent input streams an untraced run sets up and trains on,
/// round-robin. Quality and throughput vary from stream to stream;
/// spreading each run over several streams keeps run-to-run figures
/// steady. A traced run uses stream 0 only.
pub const STREAMS: usize = 4;

/// Seed of input stream `i` of a run with seed `seed`: distinct seeds
/// never share a stream.
pub fn stream_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(STREAMS as u64).wrapping_add(i as u64)
}

/// Calls `f(iteration)` until `seconds` have passed, at least `min` times.
pub fn repeat_for(
    seconds: f64,
    min: usize,
    mut f: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let t = std::time::Instant::now();
    let mut n = 0;
    while n < min || t.elapsed() < Duration::from_secs_f64(seconds) {
        f(n)?;
        n += 1;
    }
    Ok(n)
}

/// Bitwise equality of two f32 slices (loss identity checks).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Two training reports agree in batch sizes, loss bits and
/// validation bits.
pub fn same_run(a: &TrainReport, b: &TrainReport) -> bool {
    a.batch_sizes == b.batch_sizes
        && same_bits(&a.batch_losses, &b.batch_losses)
        && a.val_loss.to_bits() == b.val_loss.to_bits()
        && a.val_ap.to_bits() == b.val_ap.to_bits()
}
