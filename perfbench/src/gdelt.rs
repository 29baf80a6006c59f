//! `gdelt_ooc`: out-of-core training. Set-up generates the committed
//! `gdelt_full` recipe (scaled down) into a CEVT store; the workload
//! trains one epoch with `cascade_exec::train_streamed`, reading through
//! `StreamingEventSource` and a buffered `ReorderingSource`. The only
//! workload where store read + CRC, reordering, per-chunk table builds
//! and loader overlap block the result. `dist` and `serve` do no work.

use std::path::Path;
use std::time::Instant;

use cascade_core::{
    train_streaming, BatchingStrategy, CascadeConfig, CascadeScheduler, TrainConfig, TrainReport,
};
use cascade_exec::{train_streamed, PipelineConfig};
use cascade_models::MemoryTgnn;
use cascade_scenario::{generate_to_store, Recipe, ScenarioRunner};
use cascade_store::{ChunkReader, StreamingEventSource};
use cascade_tgraph::{EventSource, ReorderingSource};

use crate::host::{mean, median, peak_rss_mib};
use crate::trace::{self, span};
use crate::wrap::{TracedSource, TracedStrategy};
use crate::{repeat_for, same_run, stream_seed, Outcome, Run, STREAMS};

const RECIPE: &str = include_str!("../../recipes/gdelt_full.json");
/// Share of the recipe's 1.45 M events in each input stream: one epoch
/// takes about four seconds and peak RSS stays near 300 MiB on a 2-core
/// host. At half this share the validation range holds too few events
/// and `val_ap` spreads three times as much across seeds.
const SCALE: f64 = 0.05;
/// Chunks the store prefetch thread may buffer.
const READ_AHEAD: usize = 2;

fn recipe(seed: u64) -> Result<Recipe, String> {
    let mut r = Recipe::parse(RECIPE)
        .map_err(|e| e.to_string())?
        .scaled(SCALE);
    r.seed = seed;
    Ok(r)
}

struct Setup {
    recipe: Recipe,
    runner: ScenarioRunner,
}

impl Setup {
    fn model(&self) -> MemoryTgnn {
        let r = &self.recipe;
        MemoryTgnn::new(crate::wiki::model_config(), r.nodes, r.feature_dim, r.seed)
    }

    fn scheduler(&self) -> CascadeScheduler {
        CascadeScheduler::new(CascadeConfig {
            preset_batch_size: self.recipe.train.batch,
            seed: self.recipe.seed,
            ..CascadeConfig::default()
        })
    }

    fn train_config(&self) -> TrainConfig {
        let spec = &self.recipe.train;
        TrainConfig {
            epochs: spec.epochs,
            lr: spec.lr as f32,
            eval_batch_size: spec.batch,
            clip_norm: Some(5.0),
            scale_lr_with_batch: true,
            compute_threads: 1,
            ..TrainConfig::default()
        }
    }

    fn normalize<S: EventSource>(&self, inner: S) -> ReorderingSource<S> {
        ReorderingSource::with_declared_events(
            inner,
            self.runner.policy(),
            self.recipe.base_events(),
        )
    }

    fn train_events(&self) -> usize {
        self.recipe.base_events() * 70 / 100 * self.recipe.train.epochs
    }
}

fn open(store: &Path) -> Result<StreamingEventSource, String> {
    StreamingEventSource::open(store, READ_AHEAD)
        .map_err(|e| format!("cannot open store {}: {}", store.display(), e))
}

/// The untraced measured call: one pipelined out-of-core epoch.
fn streamed_once(setup: &Setup, store: &Path) -> Result<(TrainReport, f64), String> {
    let mut source = setup.normalize(open(store)?);
    let mut model = setup.model();
    let mut sched = setup.scheduler();
    let t = Instant::now();
    let report = train_streamed(
        &mut model,
        &mut source,
        &mut sched,
        &setup.train_config(),
        &PipelineConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok((report, t.elapsed().as_secs_f64()))
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let streams = if run.trace { 1 } else { STREAMS };
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for i in 0..streams {
        let store = run.dir.join(format!("gdelt_full-{}.cevt", i));
        let t = Instant::now();
        let recipe = recipe(stream_seed(run.seed, i))?;
        let summary = generate_to_store(&recipe, &store).map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        out.check(summary.events == recipe.delivered_events(), || {
            format!(
                "store holds {} events, recipe delivers {}",
                summary.events,
                recipe.delivered_events()
            )
        });
        let setup = Setup {
            runner: ScenarioRunner::new(recipe.clone()),
            recipe,
        };
        inputs.push((setup, store));
    }
    out.set("setup_s", median(&setups));
    let first = &inputs[0].0.recipe;
    eprintln!(
        "gdelt_ooc: {} streams of {} base / {} delivered events, {} nodes, {} features, chunks of {}",
        streams,
        first.base_events(),
        first.delivered_events(),
        first.nodes,
        first.feature_dim,
        first.chunk_size
    );

    let mut reference: Vec<Option<TrainReport>> = vec![None; streams];
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let budget = if run.trace { 0.0 } else { run.seconds };
    let iterations = repeat_for(budget, streams.max(3), |it| {
        let i = it % streams;
        let (setup, store) = &inputs[i];
        let (report, secs) = streamed_once(setup, store)?;
        out.check(
            report.val_loss.is_finite() && (0.0..=1.0).contains(&report.val_ap),
            || {
                format!(
                    "validation out of range: loss {}, AP {}",
                    report.val_loss, report.val_ap
                )
            },
        );
        if let Some(r) = &reference[i] {
            out.check(same_run(r, &report), || {
                "repeated train_streamed call diverged from the first".into()
            });
        }
        walls.push(secs);
        rates.push(setup.train_events() as f64 / secs);
        reference[i].get_or_insert(report);
        Ok(())
    })?;
    let reference: Vec<TrainReport> = reference
        .into_iter()
        .map(|r| r.expect("every stream trained"))
        .collect();
    out.attempted = iterations;
    let rate = median(&rates);
    let val_loss = mean(
        &reference
            .iter()
            .map(|r| r.val_loss as f64)
            .collect::<Vec<_>>(),
    );
    let val_ap = mean(
        &reference
            .iter()
            .map(|r| r.val_ap as f64)
            .collect::<Vec<_>>(),
    );
    eprintln!(
        "  train_streamed: {:.0} ev/s over {} calls, val_loss {:.4}, val_ap {:.4}",
        rate,
        rates.len(),
        val_loss,
        val_ap
    );
    out.set("events_per_s", rate);
    out.set("train_events_per_s", rate);
    out.set("val_loss", val_loss);
    out.set("val_ap", val_ap);
    if run.trace {
        let (setup, store) = &inputs[0];
        traced(&mut out, run, setup, store, &reference[0], median(&walls))?;
    }
    out.set("peak_rss_mb", peak_rss_mib(None).unwrap_or(0.0));
    Ok(out)
}

fn traced(
    out: &mut Outcome,
    run: &Run,
    setup: &Setup,
    store: &Path,
    reference: &TrainReport,
    untraced_wall: f64,
) -> Result<(), String> {
    trace::enable();
    let driver = trace::thread_id();
    let t0 = trace::now_ns();

    // Store layer alone: a direct frame-by-frame read with CRC checks.
    let (read_bytes, crc_errors) = {
        let _g = span("store.pass");
        store_pass(store)?
    };

    // Serial out-of-core training, every layer on the driver thread.
    let serial_start = trace::now_ns();
    let mut source = TracedSource::new(
        setup.normalize(TracedSource::new(open(store)?, "store.wait")),
        "ingest.reorder",
    );
    let mut sched = TracedStrategy::new(setup.scheduler());
    let serial = {
        let _g = span("model.residual");
        train_streaming(
            &mut setup.model(),
            &mut source,
            &mut sched as &mut dyn BatchingStrategy,
            &setup.train_config(),
        )
        .map_err(|e| e.to_string())?
    };
    let serial_end = trace::now_ns();
    let normalized = source.delivered;
    let delivered = source.into_inner().into_inner().delivered;

    // Pipelined: the source spans now land on the loader thread.
    let streamed_start = trace::now_ns();
    let mut psource = TracedSource::new(
        setup.normalize(TracedSource::new(open(store)?, "store.wait")),
        "ingest.reorder",
    );
    let mut psched = TracedStrategy::new(setup.scheduler());
    let streamed = {
        let _g = span("exec.train_streamed");
        train_streamed(
            &mut setup.model(),
            &mut psource,
            &mut psched,
            &setup.train_config(),
            &PipelineConfig::default(),
        )
        .map_err(|e| e.to_string())?
    };
    let streamed_end = trace::now_ns();
    let t1 = trace::now_ns();
    trace::disable();

    out.check(same_run(reference, &serial), || {
        "traced serial train_streaming differs from untraced train_streamed (batch sizes, loss or validation bits)".into()
    });
    out.check(same_run(reference, &streamed), || {
        "traced train_streamed differs from the untraced call".into()
    });
    let epochs = setup.recipe.train.epochs;
    out.check(
        delivered == setup.recipe.delivered_events() * epochs,
        || {
            format!(
                "store delivered {} events, recipe delivers {}",
                delivered,
                setup.recipe.delivered_events()
            )
        },
    );
    out.check(crc_errors == 0, || {
        format!("{} CRC errors in the store pass", crc_errors)
    });

    let spans = trace::drain();
    let s = trace::self_times(&spans, driver, serial_start, serial_end);
    for (metric, span_name) in [
        ("sched.prepare_s", "sched.prepare"),
        ("sched.enter_chunk_s", "sched.enter_chunk"),
        ("sched.scan_s", "sched.scan"),
        ("sched.sgfilter_s", "sched.sgfilter"),
        ("sched.abs_s", "sched.abs"),
        ("store.wait_s", "store.wait"),
        ("ingest.reorder_s", "ingest.reorder"),
        ("model.residual_s", "model.residual"),
    ] {
        out.set(metric, s.secs(span_name));
    }
    let all = trace::self_times(&spans, driver, t0, t1);
    let read_s = all.secs("store.pass");
    out.set("store.read_s", read_s);
    out.set("store.read_mb_per_s", read_bytes as f64 / 1e6 / read_s);
    out.set("ingest.dropped_dups", (delivered - normalized) as f64);
    out.set("sched.batches", sched.batches as f64);
    out.set(
        "sched.mean_batch",
        sched.events as f64 / sched.batches.max(1) as f64,
    );
    out.set(
        "sched.stable_frac",
        sched
            .inner()
            .sg_filter()
            .map_or(0.0, |f| f.epoch_stable_ratio()),
    );
    let loader = trace::off_thread_busy(&spans, driver, streamed_start, streamed_end);
    out.set(
        "exec.loader_busy_s",
        loader.values().sum::<u64>() as f64 / 1e9,
    );
    let serial_wall = (serial_end - serial_start) as f64 / 1e9;
    let streamed_wall = (streamed_end - streamed_start) as f64 / 1e9;
    out.set("exec.overlap_s", serial_wall - streamed_wall);
    out.set(
        "trace.residual_frac",
        all.residual as f64 / all.wall.max(1) as f64,
    );
    out.set("trace.overhead_frac", streamed_wall / untraced_wall - 1.0);
    let table = trace::table(&all, &trace::off_thread_busy(&spans, driver, t0, t1));
    run.write_trace("gdelt_ooc", &spans, &table)
}

/// Reads every frame of the store directly; returns (bytes, CRC errors).
fn store_pass(store: &Path) -> Result<(u64, usize), String> {
    let mut reader = ChunkReader::open(store).map_err(|e| e.to_string())?;
    let mut errors = 0;
    loop {
        match reader.next_frame() {
            Ok(Some(chunk)) => {
                std::hint::black_box(chunk);
            }
            Ok(None) => break,
            Err(cascade_store::StoreError::CrcMismatch { .. }) => {
                errors += 1;
                break;
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    let bytes = std::fs::metadata(store).map_err(|e| e.to_string())?.len();
    Ok((bytes, errors))
}
