//! Every single-process entry point builds its report through the same
//! batch step and epilogue, so the report's bookkeeping invariants hold
//! for all of them alike.

use cascade_core::{train, train_streaming, CascadeConfig, CascadeScheduler, TrainConfig};
use cascade_exec::{train_pipelined, PipelineConfig};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_tgraph::{Dataset, InMemorySource, SynthConfig};

const CHUNK: usize = 128;

fn model(data: &Dataset) -> MemoryTgnn {
    MemoryTgnn::new(
        ModelConfig::tgn().with_dims(8, 4).with_neighbors(3),
        data.num_nodes(),
        data.features().dim(),
        5,
    )
}

fn scheduler() -> CascadeScheduler {
    CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 64,
        chunk_size: Some(CHUNK),
        ..CascadeConfig::default()
    })
}

#[test]
fn every_entry_point_reports_the_same_invariants() {
    let data = SynthConfig::wiki().with_scale(0.004).generate(17);
    let cfg = TrainConfig {
        epochs: 2,
        eval_batch_size: 64,
        ..TrainConfig::default()
    };

    let serial = train(&mut model(&data), &data, &mut scheduler(), &cfg);
    let mut source = InMemorySource::from_dataset(&data, CHUNK);
    let streaming = train_streaming(&mut model(&data), &mut source, &mut scheduler(), &cfg)
        .expect("streaming run");
    let pipelined = train_pipelined(
        &mut model(&data),
        &data,
        &mut scheduler(),
        &cfg,
        &PipelineConfig::default().with_staleness(0),
    )
    .expect("pipelined run");

    for (what, r) in [
        ("train", &serial),
        ("train_streaming", &streaming),
        ("train_pipelined", &pipelined),
    ] {
        assert!(r.num_batches > cfg.epochs, "{what}: too few batches");
        assert_eq!(r.stages.scan.items, r.num_batches, "{what}: scan items");
        assert_eq!(
            r.stages.compute.items, r.num_batches,
            "{what}: compute items"
        );
        assert_eq!(r.stages.update.items, r.num_batches, "{what}: update items");
        assert_eq!(
            r.model_time,
            r.stages.compute.busy + r.stages.update.busy,
            "{what}: model time"
        );
        assert_eq!(r.epoch_losses.len(), cfg.epochs, "{what}: epoch losses");
        assert_eq!(r.batch_sizes.len(), r.num_batches, "{what}: batch sizes");
        assert_eq!(
            r.batch_sizes.iter().map(|&b| b as usize).sum::<usize>(),
            data.train_range().end * cfg.epochs,
            "{what}: batch sizes cover the training split every epoch"
        );
    }
    // Same data, same chunk geometry, staleness 0: the same run.
    assert_eq!(serial.batch_sizes, streaming.batch_sizes);
    assert_eq!(serial.batch_sizes, pipelined.batch_sizes);
}
