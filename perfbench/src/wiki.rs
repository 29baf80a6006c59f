//! `inmem_wiki`: the paper's setting. A wiki-shaped stream fits in RAM
//! and is trained single-worker (`cascade_core::train` with the Cascade
//! scheduler) and 2-way data-parallel (`cascade_dist::train_dist`).
//! Store, reorder, exec and serve do no work here: this workload is the
//! bypass control for I/O and serving changes.

use std::time::Instant;

use cascade_core::{
    evaluate, train, BatchingStrategy, CascadeConfig, CascadeScheduler, EvalReport, TrainConfig,
    TrainReport,
};
use cascade_dist::{all_reduce, collect_grads, train_dist, DistConfig, DistOutcome};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_nn::{clip_grad_norm, Adam, Module};
use cascade_tgraph::{Dataset, SynthConfig};

use crate::host::{mean, median, peak_rss_mib};
use crate::trace::{self, timed};
use crate::wrap::TracedStrategy;
use crate::{repeat_for, same_bits, same_run, stream_seed, Outcome, Run, STREAMS};

/// Share of the full WIKI profile (157,474 events) in each input stream.
const SCALE: f64 = 0.1;
/// Scaled analogue of the paper's preset batch of 900.
const PRESET_BATCH: usize = 64;
const EPOCHS: usize = 2;
const DIST_WORKERS: usize = 2;

/// Builds one input stream of the workload from its seed.
pub fn dataset(seed: u64, scale: f64) -> Dataset {
    SynthConfig::wiki()
        .with_scale(scale)
        .with_node_scale(scale.powf(0.75))
        .generate(seed)
}

/// The TGN preset at reproduction width (memory 16, time 8, 4 neighbours).
pub fn model_config() -> ModelConfig {
    let cfg = ModelConfig::tgn().with_dims(16, 8);
    if cfg.sampling.count() > 4 {
        cfg.with_neighbors(4)
    } else {
        cfg
    }
}

pub fn scheduler(seed: u64) -> CascadeScheduler {
    CascadeScheduler::new(CascadeConfig {
        preset_batch_size: PRESET_BATCH,
        seed,
        ..CascadeConfig::default()
    })
}

pub fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 1e-3,
        eval_batch_size: PRESET_BATCH,
        clip_norm: Some(5.0),
        scale_lr_with_batch: true,
        compute_threads: 1,
        ..TrainConfig::default()
    }
}

fn dist_config(workers: usize, seed: u64) -> DistConfig {
    DistConfig {
        workers,
        chunk_size: PRESET_BATCH * 16,
        batch_size: PRESET_BATCH,
        epochs: EPOCHS,
        lr: 1e-3,
        clip_norm: Some(5.0),
        seed,
    }
}

fn new_model(data: &Dataset, seed: u64) -> MemoryTgnn {
    MemoryTgnn::new(
        model_config(),
        data.num_nodes(),
        data.features().dim(),
        seed,
    )
}

/// One untraced single-worker training call: (report, events/s).
fn train_once(data: &Dataset, seed: u64) -> (TrainReport, f64) {
    let mut model = new_model(data, seed);
    let mut sched = scheduler(seed);
    let t = Instant::now();
    let report = train(&mut model, data, &mut sched, &train_config(EPOCHS));
    let rate = (data.train_range().len() * EPOCHS) as f64 / t.elapsed().as_secs_f64();
    (report, rate)
}

/// One `train_dist` call: (outcome, `DistReport.events` per second).
fn dist_once(data: &Dataset, workers: usize, seed: u64) -> (DistOutcome, f64) {
    let t = Instant::now();
    let out = train_dist(data, &model_config(), &dist_config(workers, seed));
    let rate = out.report.events as f64 / t.elapsed().as_secs_f64();
    (out, rate)
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let streams = if run.trace { 1 } else { STREAMS };
    let mut setups = Vec::new();
    let mut data = Vec::new();
    for i in 0..streams {
        let t = Instant::now();
        data.push(dataset(stream_seed(run.seed, i), SCALE));
        setups.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setups));
    eprintln!(
        "inmem_wiki: {} streams of ~{} events ({} nodes, {} features)",
        streams,
        data[0].num_events(),
        data[0].num_nodes(),
        data[0].features().dim()
    );

    let mut reference: Vec<Option<TrainReport>> = vec![None; streams];
    let mut rates = Vec::new();
    let mut dist_rates = Vec::new();
    let mut dist_losses = Vec::new();
    let mut dist_rounds = 0usize;
    // Untraced: alternate the single-worker and the 2-way call so host
    // drift hits both alike, cycling through the streams. A traced run
    // needs only a short baseline on stream 0.
    let budget = if run.trace { 0.0 } else { run.seconds };
    let iterations = repeat_for(budget, streams.max(3), |it| {
        let i = it % streams;
        let seed = stream_seed(run.seed, i);
        let (report, rate) = train_once(&data[i], seed);
        out.check(report.val_loss.is_finite(), || {
            format!("val_loss {} is not finite", report.val_loss)
        });
        out.check((0.0..=1.0).contains(&report.val_ap), || {
            format!("val_ap {} outside [0,1]", report.val_ap)
        });
        if let Some(r) = &reference[i] {
            out.check(same_run(r, &report), || {
                "repeated training call diverged from the first".into()
            });
        }
        rates.push(rate);
        reference[i].get_or_insert(report);
        let (d, rate) = dist_once(&data[i], DIST_WORKERS, seed);
        let loss = d.report.epoch_losses.last().copied().unwrap_or(f32::NAN) as f64;
        out.check(loss.is_finite(), || {
            format!("dist2 train loss {} is not finite", loss)
        });
        dist_rates.push(rate);
        if it < streams {
            dist_losses.push(loss);
        }
        dist_rounds = d.report.rounds;
        Ok(())
    })?;
    let reference: Vec<TrainReport> = reference
        .into_iter()
        .map(|r| r.expect("every stream trained"))
        .collect();
    out.attempted = 2 * iterations;
    let single = median(&rates);
    let dist2 = median(&dist_rates);
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
        "  train: {:.0} ev/s over {} calls, val_loss {:.4}, val_ap {:.4}; dist2: {:.0} ev/s, loss {:.4}",
        single,
        rates.len(),
        val_loss,
        val_ap,
        dist2,
        mean(&dist_losses)
    );
    out.set("events_per_s", single);
    out.set("val_loss", val_loss);
    out.set("val_ap", val_ap);
    out.set("train_events_per_s", single);
    out.set("dist2_events_per_s", dist2);
    out.set("dist2_train_loss", mean(&dist_losses));
    out.set("dist.rounds", dist_rounds as f64);

    if run.trace {
        let seed = stream_seed(run.seed, 0);
        let (_, rate1) = dist_once(&data[0], 1, seed);
        out.set("dist.speedup_2v1", dist2 / rate1);
        allreduce_probe(&mut out, &data[0], seed);
        let untraced_wall = (data[0].train_range().len() * EPOCHS) as f64 / single;
        traced(&mut out, run, &data[0], seed, &reference[0], untraced_wall)?;
    }
    out.set("peak_rss_mb", peak_rss_mib(None).unwrap_or(0.0));
    Ok(out)
}

/// Times a direct `all_reduce` over `collect_grads` of the real model
/// after one backward pass, as two workers would exchange them.
fn allreduce_probe(out: &mut Outcome, data: &Dataset, seed: u64) {
    let model = new_model(data, seed);
    let events = &data.stream().events()[..PRESET_BATCH];
    let fwd = model.forward_batch(events, 0, data.features());
    fwd.loss.backward();
    let grads = collect_grads(&model.parameters());
    let mut times = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        std::hint::black_box(all_reduce(&[&grads, &grads]));
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set("dist.allreduce_ms", median(&times));
    out.set(
        "dist.allreduce_bytes_per_round",
        (DIST_WORKERS * model.parameter_count() * std::mem::size_of::<f32>()) as f64,
    );
}

/// The traced replica of `train`'s step loop: the same calls in the
/// same order, each inside a span. Returns per-batch sizes and losses
/// and the validation report.
pub fn traced_train<S: BatchingStrategy>(
    model: &mut MemoryTgnn,
    data: &Dataset,
    strategy: &mut TracedStrategy<S>,
    cfg: &TrainConfig,
) -> (Vec<u32>, Vec<f32>, EvalReport) {
    model.set_compute_threads(cfg.compute_threads.max(1));
    let train_range = data.train_range();
    let events = data.stream().events();
    let n_train = train_range.end;
    strategy.prepare(&events[train_range], data.num_nodes());
    let params = model.parameters();
    let mut opt = Adam::new(params.clone(), cfg.lr);
    let mut sizes = Vec::new();
    let mut losses = Vec::new();
    for _ in 0..cfg.epochs {
        timed("model.reset_state", || model.reset_state());
        strategy.reset_epoch();
        let mut start = 0usize;
        let mut batch_idx = 0usize;
        while start < n_train {
            let end = strategy.next_batch_end(start, n_train);
            if cfg.scale_lr_with_batch {
                let scale = ((end - start) as f32 / cfg.eval_batch_size as f32).sqrt();
                opt.set_lr(cfg.lr * scale);
            }
            let fwd = timed("model.forward", || {
                model.forward_batch(&events[start..end], start, data.features())
            });
            let loss = fwd.loss.item();
            timed("model.backward", || fwd.loss.backward());
            if let Some(c) = cfg.clip_norm {
                timed("nn.clip", || clip_grad_norm(&params, c));
            }
            timed("nn.adam", || opt.step());
            let deltas = timed("model.apply", || {
                model.apply_batch(&events[start..end], start, data.features(), fwd.pending)
            });
            timed("tensor.arena_reset", cascade_tensor::arena::reset);
            strategy.after_batch(batch_idx, loss);
            strategy.observe_updates(&deltas);
            sizes.push((end - start) as u32);
            losses.push(loss);
            batch_idx += 1;
            start = end;
        }
    }
    let val = timed("eval", || evaluate(model, data, cfg.eval_batch_size));
    (sizes, losses, val)
}

fn traced(
    out: &mut Outcome,
    run: &Run,
    data: &Dataset,
    seed: u64,
    reference: &TrainReport,
    untraced_wall: f64,
) -> Result<(), String> {
    let mut model = new_model(data, seed);
    let mut sched = TracedStrategy::new(scheduler(seed));
    let cfg = train_config(EPOCHS);
    trace::enable();
    let driver = trace::thread_id();
    let t0 = trace::now_ns();
    let (sizes, losses, val) = traced_train(&mut model, data, &mut sched, &cfg);
    let t1 = trace::now_ns();
    trace::disable();
    out.check(
        sizes == reference.batch_sizes && same_bits(&losses, &reference.batch_losses),
        || "traced replica diverged from train() in batch sizes or loss bits".into(),
    );
    out.check(
        val.loss.to_bits() == reference.val_loss.to_bits()
            && val.average_precision.to_bits() == reference.val_ap.to_bits(),
        || "traced replica's validation differs from train()".into(),
    );

    let spans = trace::drain();
    let t = trace::self_times(&spans, driver, t0, t1);
    let wall = (t1 - t0) as f64 / 1e9;
    for (metric, span_name) in [
        ("sched.prepare_s", "sched.prepare"),
        ("sched.scan_s", "sched.scan"),
        ("sched.sgfilter_s", "sched.sgfilter"),
        ("sched.abs_s", "sched.abs"),
        ("model.forward_s", "model.forward"),
        ("model.backward_s", "model.backward"),
        ("nn.clip_s", "nn.clip"),
        ("nn.adam_s", "nn.adam"),
        ("model.apply_s", "model.apply"),
        ("tensor.arena_reset_s", "tensor.arena_reset"),
        ("eval_s", "eval"),
    ] {
        out.set(metric, t.secs(span_name));
    }
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
    out.set(
        "trace.residual_frac",
        t.residual as f64 / t.wall.max(1) as f64,
    );
    out.set("trace.overhead_frac", wall / untraced_wall - 1.0);
    let table = trace::table(&t, &trace::off_thread_busy(&spans, driver, t0, t1));
    run.write_trace("inmem_wiki", &spans, &table)
}
