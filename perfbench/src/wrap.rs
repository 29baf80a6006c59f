//! Delegating wrappers that time the calls a driver makes into a
//! [`BatchingStrategy`] or an [`EventSource`].
//!
//! Each wrapper forwards *every* trait method, the defaulted ones too:
//! a wrapper that fell back to a trait default (say `table_spec` or
//! `prepare_streaming`) would silently change what the driver does.

use cascade_core::{BatchingStrategy, PrebuiltTable, StrategySpace, StrategyTimers, TableSpec};
use cascade_models::MemoryDelta;
use cascade_tgraph::{Event, EventChunk, EventId, EventSource, SourceError};

use crate::trace::span;

/// A strategy wrapper recording `sched.*` spans and batch counts.
pub struct TracedStrategy<S> {
    inner: S,
    /// Batches cut by `next_batch_end`.
    pub batches: usize,
    /// Events covered by those batches.
    pub events: usize,
}

impl<S: BatchingStrategy> TracedStrategy<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TracedStrategy {
            inner,
            batches: 0,
            events: 0,
        }
    }

    /// The wrapped strategy.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: BatchingStrategy> BatchingStrategy for TracedStrategy<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn prepare(&mut self, events: &[Event], num_nodes: usize) {
        let _g = span("sched.prepare");
        self.inner.prepare(events, num_nodes)
    }

    fn reset_epoch(&mut self) {
        let _g = span("sched.reset_epoch");
        self.inner.reset_epoch()
    }

    fn next_batch_end(&mut self, start: EventId, limit: EventId) -> EventId {
        let _g = span("sched.scan");
        let end = self.inner.next_batch_end(start, limit);
        self.batches += 1;
        self.events += end - start;
        end
    }

    fn after_batch(&mut self, batch_idx: usize, train_loss: f32) {
        let _g = span("sched.abs");
        self.inner.after_batch(batch_idx, train_loss)
    }

    fn observe_updates(&mut self, deltas: &[MemoryDelta]) {
        let _g = span("sched.sgfilter");
        self.inner.observe_updates(deltas)
    }

    fn space(&self) -> StrategySpace {
        self.inner.space()
    }

    fn timers(&self) -> StrategyTimers {
        self.inner.timers()
    }

    fn prepare_streaming(
        &mut self,
        total_train: usize,
        num_nodes: usize,
        chunk_size: usize,
    ) -> bool {
        let _g = span("sched.prepare");
        self.inner
            .prepare_streaming(total_train, num_nodes, chunk_size)
    }

    fn table_spec(&self) -> Option<TableSpec> {
        self.inner.table_spec()
    }

    fn enter_chunk(
        &mut self,
        idx: usize,
        base: EventId,
        events: &[Event],
        prebuilt: Option<PrebuiltTable>,
    ) {
        let _g = span("sched.enter_chunk");
        self.inner.enter_chunk(idx, base, events, prebuilt)
    }

    fn export_state(&self) -> Vec<u8> {
        self.inner.export_state()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.import_state(bytes)
    }
}

/// An event-source wrapper recording one span per `next_chunk` and the
/// events it delivered.
pub struct TracedSource<S> {
    inner: S,
    label: &'static str,
    /// Events yielded since construction (all epochs).
    pub delivered: usize,
}

impl<S: EventSource> TracedSource<S> {
    /// Wraps `inner`; `label` names its `next_chunk` spans.
    pub fn new(inner: S, label: &'static str) -> Self {
        TracedSource {
            inner,
            label,
            delivered: 0,
        }
    }

    /// Unwraps the source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EventSource> EventSource for TracedSource<S> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_events(&self) -> usize {
        self.inner.num_events()
    }

    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }

    fn chunk_size(&self) -> usize {
        self.inner.chunk_size()
    }

    fn next_chunk(&mut self) -> Result<Option<EventChunk>, SourceError> {
        let _g = span(self.label);
        let chunk = self.inner.next_chunk()?;
        if let Some(c) = &chunk {
            self.delivered += c.events.len();
        }
        Ok(chunk)
    }

    fn reset(&mut self) -> Result<(), SourceError> {
        self.inner.reset()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use cascade_core::{train, train_streaming, TrainReport};
    use cascade_exec::{train_streamed, PipelineConfig};
    use cascade_models::MemoryTgnn;
    use cascade_tgraph::{Dataset, InMemorySource};

    use super::*;
    use crate::same_bits;
    use crate::trace;
    use crate::wiki::{dataset, model_config, scheduler, traced_train, train_config};

    const SEED: u64 = 5;

    fn tiny() -> Dataset {
        dataset(SEED, 0.01)
    }

    fn model(data: &Dataset) -> MemoryTgnn {
        MemoryTgnn::new(
            model_config(),
            data.num_nodes(),
            data.features().dim(),
            SEED,
        )
    }

    fn assert_same(a: &TrainReport, b: &TrainReport) {
        assert!(!a.batch_sizes.is_empty());
        assert_eq!(a.batch_sizes, b.batch_sizes);
        assert!(
            same_bits(&a.batch_losses, &b.batch_losses),
            "loss bits differ"
        );
        assert_eq!(a.val_loss.to_bits(), b.val_loss.to_bits());
        assert_eq!(a.val_ap.to_bits(), b.val_ap.to_bits());
    }

    #[test]
    fn wrapped_strategy_and_traced_replica_match_train() {
        let data = tiny();
        let cfg = train_config(2);
        let plain = train(&mut model(&data), &data, &mut scheduler(SEED), &cfg);
        let mut wrapped_sched = TracedStrategy::new(scheduler(SEED));
        let wrapped = train(&mut model(&data), &data, &mut wrapped_sched, &cfg);
        assert_same(&plain, &wrapped);
        assert_eq!(wrapped_sched.batches, plain.num_batches);

        let (sizes, losses, val) = traced_train(
            &mut model(&data),
            &data,
            &mut TracedStrategy::new(scheduler(SEED)),
            &cfg,
        );
        assert_eq!(sizes, plain.batch_sizes);
        assert!(same_bits(&losses, &plain.batch_losses));
        assert_eq!(val.loss.to_bits(), plain.val_loss.to_bits());
        assert_eq!(val.average_precision.to_bits(), plain.val_ap.to_bits());
    }

    #[test]
    fn wrappers_forward_defaulted_methods() {
        let data = tiny();
        let n = data.train_range().len();
        let mut plain = scheduler(SEED);
        let mut wrapped = TracedStrategy::new(scheduler(SEED));
        assert_eq!(
            plain.prepare_streaming(n, data.num_nodes(), 256),
            wrapped.prepare_streaming(n, data.num_nodes(), 256)
        );
        assert!(wrapped.table_spec().is_some());
        assert_eq!(plain.table_spec(), wrapped.table_spec());
        let events = &data.stream().events()[..256];
        plain.enter_chunk(0, 0, events, None);
        wrapped.enter_chunk(0, 0, events, None);
        assert_eq!(plain.next_batch_end(0, 256), wrapped.next_batch_end(0, 256));
        assert_eq!(plain.space(), wrapped.space());
        assert!(wrapped.timers().lookup > std::time::Duration::ZERO);
        let state = plain.export_state();
        assert!(!state.is_empty());
        assert_eq!(state, wrapped.export_state());
        wrapped
            .import_state(&state)
            .expect("scheduler state round-trips through the wrapper");
        assert!(wrapped.import_state(&[0xFF]).is_err());
        assert_eq!(plain.name(), wrapped.name());

        let src = InMemorySource::from_dataset(&data, 256);
        let traced = TracedSource::new(InMemorySource::from_dataset(&data, 256), "src");
        assert_eq!(
            (
                src.num_nodes(),
                src.num_events(),
                src.feature_dim(),
                src.chunk_size(),
                src.name()
            ),
            (
                traced.num_nodes(),
                traced.num_events(),
                traced.feature_dim(),
                traced.chunk_size(),
                traced.name()
            )
        );
    }

    #[test]
    fn wrapped_sources_stream_identically() {
        let data = tiny();
        let cfg = train_config(2);
        let plain = train_streaming(
            &mut model(&data),
            &mut InMemorySource::from_dataset(&data, 256),
            &mut scheduler(SEED),
            &cfg,
        )
        .expect("plain streaming run");
        let mut source = TracedSource::new(
            TracedSource::new(InMemorySource::from_dataset(&data, 256), "inner"),
            "outer",
        );
        let mut sched = TracedStrategy::new(scheduler(SEED));
        let wrapped = train_streaming(&mut model(&data), &mut source, &mut sched, &cfg)
            .expect("wrapped streaming run");
        assert_same(&plain, &wrapped);
        let outer = source.delivered;
        assert!(outer > 0);
        assert_eq!(outer, source.into_inner().delivered);

        let mut source = TracedSource::new(InMemorySource::from_dataset(&data, 256), "src");
        let pipelined = train_streamed(
            &mut model(&data),
            &mut source,
            &mut TracedStrategy::new(scheduler(SEED)),
            &cfg,
            &PipelineConfig::default(),
        )
        .expect("wrapped pipelined run");
        assert_same(&plain, &pipelined);
    }

    #[test]
    fn traced_replica_spans_nest() {
        let data = tiny();
        trace::enable();
        let driver = trace::thread_id();
        let t0 = trace::now_ns();
        traced_train(
            &mut model(&data),
            &data,
            &mut TracedStrategy::new(scheduler(SEED)),
            &train_config(1),
        );
        let t1 = trace::now_ns();
        trace::disable();
        let spans = trace::drain();
        // self_times panics on a child outside its parent, on overlapping
        // roots and on a negative self time.
        let t = trace::self_times(&spans, driver, t0, t1);
        assert!(t.rows.contains_key("model.forward") && t.rows.contains_key("sched.scan"));
        assert_eq!(t.rows.values().sum::<u64>() + t.residual, t.wall);
        assert!(trace::chrome_json(&spans).contains("\"ph\":\"X\""));
    }
}
