//! Publish by ticket replay: the engine keeps two replicas and catches
//! the retired one up by re-applying each sub-batch's write-back ticket
//! instead of copying the whole state. These tests pin that path to a
//! sequential reference bit-for-bit after every ingest — memories and
//! mailboxes through `export_state`, adjacency through `score_links`
//! and `history_degree` — on the normal path, under the reader-held
//! fallback, and across a restart from WAL + state snapshot.

use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_serve::{Engine, EngineConfig};
use cascade_tgraph::{EdgeFeatures, Event, NodeId};

const NODES: usize = 12;
const FEAT_DIM: usize = 4;
const FRAME: usize = 4;
const QUERY_TIME: f64 = 1.0e6;
/// Ingest request sizes, cycled: single-frame, exactly one frame, and
/// multi-frame requests with a ragged last frame.
const SIZES: [usize; 5] = [3, FRAME, 9, 1, 2 * FRAME + 1];

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cascade_serve_publish_replay_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{}_{}", std::process::id(), name));
    std::fs::remove_file(&p).ok();
    p
}

fn base_model() -> MemoryTgnn {
    MemoryTgnn::new(
        ModelConfig::tgn().with_dims(8, 4).with_neighbors(2),
        NODES,
        FEAT_DIM,
        17,
    )
}

/// Deterministic time-ordered events with a hub (node 0 appears in
/// every third event) so mailboxes and neighborhoods fill unevenly.
fn batch(range: std::ops::Range<usize>) -> (Vec<Event>, Vec<f32>) {
    let events: Vec<Event> = range
        .clone()
        .map(|i| {
            let src = if i % 3 == 0 { 0 } else { (i * 5 + 1) % NODES };
            let dst = (i * 7 + 3) % NODES;
            let dst = if dst == src { (dst + 1) % NODES } else { dst };
            Event::new(src as u32, dst as u32, i as f64 * 0.5)
        })
        .collect();
    let feats: Vec<f32> = range
        .flat_map(|i| (0..FEAT_DIM).map(move |j| ((i * 11 + j * 3) % 17) as f32 * 0.03))
        .collect();
    (events, feats)
}

/// The sequential reference: one model fed the same sub-batches with
/// `forward_batch` + `apply_batch`, the way the engine's writer is.
struct Reference {
    model: MemoryTgnn,
    feats: EdgeFeatures,
    applied: usize,
}

impl Reference {
    fn new() -> Self {
        Reference {
            model: base_model(),
            feats: EdgeFeatures::new(Vec::new(), FEAT_DIM),
            applied: 0,
        }
    }

    fn ingest(&mut self, events: &[Event], rows: &[f32]) {
        for (sub, sub_rows) in events.chunks(FRAME).zip(rows.chunks(FRAME * FEAT_DIM)) {
            self.feats.push_rows(sub_rows);
            let fwd = self.model.forward_batch(sub, self.applied, &self.feats);
            self.model
                .apply_batch(sub, self.applied, &self.feats, fwd.pending);
            self.applied += sub.len();
        }
    }
}

fn score_bits(model: &MemoryTgnn, feats: &EdgeFeatures, src: usize) -> Vec<u32> {
    let dsts: Vec<NodeId> = (0..NODES as u32).map(NodeId).collect();
    model
        .score_links(NodeId(src as u32), &dsts, QUERY_TIME, feats)
        .iter()
        .map(|s| s.to_bits())
        .collect()
}

/// Asserts the published snapshot is exactly the engine's writer state
/// and the reference state: serialized memories and mailboxes, feature
/// rows up to the watermark, and per-node scores and history degrees
/// (which cover the adjacency `export_state` leaves out).
fn assert_published_matches(engine: &Engine, reference: &Reference) {
    let snap = engine.shared().snapshot();
    let at = engine.applied();
    assert_eq!(snap.events, at, "published watermark");
    assert_eq!(reference.applied, at, "reference watermark");
    assert_eq!(snap.feats.len(), at, "feature rows at {}", at);
    let state = snap.model.export_state();
    assert!(
        state == engine.export_state(),
        "snapshot != writer at {}",
        at
    );
    assert!(
        state == reference.model.export_state(),
        "snapshot != reference at {}",
        at
    );
    for n in 0..NODES {
        assert_eq!(
            snap.model.history_degree(NodeId(n as u32)),
            reference.model.history_degree(NodeId(n as u32)),
            "history degree of node {} at {}",
            n,
            at
        );
        assert_eq!(
            score_bits(&snap.model, &snap.feats, n),
            score_bits(&reference.model, &reference.feats, n),
            "scores from node {} at {}",
            n,
            at
        );
    }
}

/// Ingests `requests` requests (sizes cycling through [`SIZES`]) into
/// both the engine and the reference, checking identity after each.
fn ingest_and_check(engine: &mut Engine, reference: &mut Reference, requests: usize) {
    for r in 0..requests {
        let at = engine.applied();
        let (events, rows) = batch(at..at + SIZES[r % SIZES.len()]);
        engine.ingest(&events, &rows).unwrap();
        reference.ingest(&events, &rows);
        assert_published_matches(engine, reference);
    }
}

fn counters(engine: &Engine) -> (u64, u64) {
    let stats = &engine.shared().stats;
    (
        stats
            .publish_replays
            .load(std::sync::atomic::Ordering::Relaxed),
        stats
            .publish_clones
            .load(std::sync::atomic::Ordering::Relaxed),
    )
}

#[test]
fn serial_ingest_publishes_by_replay_only() {
    let wal = tmp("serial.wal");
    let snap = tmp("serial.ckpt");
    let mut engine = Engine::open(
        base_model(),
        EngineConfig::new(&wal, &snap).with_wal_chunk(FRAME),
    )
    .unwrap();
    let mut reference = Reference::new();
    assert_published_matches(&engine, &reference);

    ingest_and_check(&mut engine, &mut reference, 12);
    // With no reader holding a retired snapshot, no publish copies the
    // state.
    assert_eq!(counters(&engine), (12, 0));
    std::fs::remove_file(&wal).ok();
}

#[test]
fn pinned_reader_forces_one_clone_and_keeps_its_state() {
    let wal = tmp("pinned.wal");
    let snap = tmp("pinned.ckpt");
    let mut engine = Engine::open(
        base_model(),
        EngineConfig::new(&wal, &snap).with_wal_chunk(FRAME),
    )
    .unwrap();
    let mut reference = Reference::new();
    ingest_and_check(&mut engine, &mut reference, 3);
    assert_eq!(counters(&engine), (3, 0));

    // Pin the published snapshot across several publishes: the first
    // of them retires it while it is held and must fall back to a copy.
    let held = engine.shared().snapshot();
    let held_state = held.model.export_state();
    let held_scores: Vec<Vec<u32>> = (0..NODES)
        .map(|n| score_bits(&held.model, &held.feats, n))
        .collect();
    ingest_and_check(&mut engine, &mut reference, 4);
    assert_eq!(counters(&engine), (6, 1));

    // The reader's state never moved under it.
    assert_eq!(held.events, 3 + FRAME + 9);
    assert!(
        held.model.export_state() == held_state,
        "pinned state moved"
    );
    for (n, scores) in held_scores.iter().enumerate() {
        assert_eq!(&score_bits(&held.model, &held.feats, n), scores);
    }
    drop(held);

    ingest_and_check(&mut engine, &mut reference, 3);
    assert_eq!(counters(&engine), (9, 1));
    std::fs::remove_file(&wal).ok();
}

#[test]
fn reopened_engine_keeps_replaying_identically() {
    let wal = tmp("reopen.wal");
    let snap = tmp("reopen.ckpt");
    let config = EngineConfig::new(&wal, &snap)
        .with_wal_chunk(FRAME)
        .with_snapshot_every(10);
    let mut reference = Reference::new();
    let mut engine = Engine::open(base_model(), config.clone()).unwrap();
    ingest_and_check(&mut engine, &mut reference, 7);
    std::mem::forget(engine); // kill -9

    // Restart = state snapshot + WAL tail; the replicas must agree with
    // the reference from the first publish on.
    let mut engine = Engine::open(base_model(), config).unwrap();
    let recovery = engine.recovery();
    assert!(recovery.snapshot_events > 0, "{:?}", recovery);
    assert!(
        recovery.snapshot_events < recovery.wal_events,
        "{:?}",
        recovery
    );
    assert_published_matches(&engine, &reference);
    ingest_and_check(&mut engine, &mut reference, 6);
    assert_eq!(counters(&engine), (6, 0));
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&snap).ok();
}
