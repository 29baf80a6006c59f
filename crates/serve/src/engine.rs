//! The serving engine: single-writer live ingest over a [`MemoryTgnn`],
//! with WAL durability and lock-free read snapshots.
//!
//! # Ownership and concurrency
//!
//! Exactly one thread owns an [`Engine`] and with it all memory writes;
//! predict handlers never touch the writer's state. The engine keeps
//! two *replicas* of the serving state, each a model (shared
//! parameters, its own memories/mailboxes/adjacency) plus its own
//! edge-feature history. One is the writer replica that ingest
//! mutates; the other is the published [`ServeSnapshot`] behind an
//! [`RwLock`]`<Arc<…>>`. Readers hold the lock only long enough to
//! clone the `Arc`, then score against a frozen state with no lock
//! held: a reader can never observe a torn mid-batch state, and ingest
//! never waits for readers. Staleness is bounded by one ingest request
//! (MSPipe-style bounded staleness, DESIGN.md §11).
//!
//! # Publishing by ticket replay
//!
//! Each applied sub-batch is logged as a ticket: its events, first
//! event id, feature rows, and the [`BatchPending`] write-back that
//! [`MemoryTgnn::forward_batch`] computed. Publishing moves the writer
//! replica into the new snapshot, takes the retired snapshot back with
//! [`Arc::try_unwrap`], and catches it up by pushing each ticket's rows
//! and running [`MemoryTgnn::apply_batch`] on it — the same write-backs,
//! message pushes, and adjacency inserts in the same order, with no
//! forward compute — so it becomes the next writer replica bit-identical
//! to the published one (DistTGL keeps its memory replicas consistent
//! the same way). Publishing therefore costs O(request), not O(state).
//!
//! Only when a predict still holds the retired snapshot does publish
//! fall back to a full copy: the writer replica stays shared with the
//! published snapshot and the next write copies it
//! ([`Arc::make_mut`]), while the reader keeps its retired state until
//! it drops it. `/stats` counts both paths (`publish_replays`,
//! `publish_clones`). Steady-state memory is two replicas; a reader
//! pinning an old snapshot holds a third until it lets go.
//!
//! # Durability
//!
//! Each applied sub-batch (at most the WAL frame unit) is first framed
//! and fsynced to the write-ahead log, *then* applied to memory — so
//! every event a client sees acknowledged is on disk before it ever
//! influences served state. Because memory evolution depends on batch
//! boundaries (mailbox consumption is per-batch), frame boundaries are
//! exactly apply boundaries; restart replays the log frame-by-frame and
//! reproduces memories bit-identically. Periodic durable snapshots
//! ([`save_state`](cascade_models::save_state)) bound replay time:
//! restart = load snapshot + replay the WAL tail.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError, RwLock};

use cascade_models::{BatchPending, MemoryTgnn};
use cascade_tgraph::{EdgeFeatures, Event};

use crate::error::ServeError;
use crate::persist;
use crate::stats::Stats;

/// Where the engine persists, and how often.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Write-ahead log path (created if missing, recovered if present).
    pub wal_path: PathBuf,
    /// Durable state-snapshot path.
    pub snapshot_path: PathBuf,
    /// WAL frame unit: ingest requests are applied (and synced) in
    /// sub-batches of at most this many events.
    pub wal_chunk: usize,
    /// Events between durable snapshots; `0` disables automatic
    /// snapshots (the WAL alone still makes every ack durable).
    pub snapshot_every: usize,
}

impl EngineConfig {
    /// Config with the default frame unit (256) and snapshots disabled.
    pub fn new(wal_path: impl Into<PathBuf>, snapshot_path: impl Into<PathBuf>) -> Self {
        EngineConfig {
            wal_path: wal_path.into(),
            snapshot_path: snapshot_path.into(),
            wal_chunk: 256,
            snapshot_every: 0,
        }
    }

    /// Sets the WAL frame unit.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0` (configuration error, caught at startup).
    pub fn with_wal_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "WAL frame unit must be positive");
        self.wal_chunk = chunk;
        self
    }

    /// Sets the automatic snapshot cadence (events; `0` disables).
    pub fn with_snapshot_every(mut self, events: usize) -> Self {
        self.snapshot_every = events;
        self
    }
}

/// One replica of the serving state; once published, an immutable
/// state readers score against.
#[derive(Clone)]
pub struct ServeSnapshot {
    /// Model: shared parameters, replica-owned mutable state.
    pub model: MemoryTgnn,
    /// Feature history aligned with the model's adjacency event ids.
    pub feats: EdgeFeatures,
    /// Events applied when this snapshot was taken (the watermark
    /// reported in `/predict` responses).
    pub events: usize,
}

/// State shared between the ingest thread and predict workers.
pub struct SharedState {
    snapshot: RwLock<Arc<ServeSnapshot>>,
    /// Serving counters and latency histograms.
    pub stats: Stats,
}

impl SharedState {
    /// The current read snapshot; the lock is held only for the `Arc`
    /// clone, so readers never block ingest for the duration of a
    /// score.
    pub fn snapshot(&self) -> Arc<ServeSnapshot> {
        self.snapshot
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// One applied sub-batch, logged until the next publish replays it
/// into the retired replica.
struct Ticket {
    events: Vec<Event>,
    first_id: usize,
    rows: Vec<f32>,
    pending: BatchPending,
}

/// What [`Engine::open`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Events recovered from the WAL (snapshot prefix + replayed tail).
    pub wal_events: usize,
    /// Events restored via the durable snapshot (the replay shortcut).
    pub snapshot_events: usize,
    /// Whether a torn WAL tail was discarded.
    pub torn_tail_discarded: bool,
}

/// Acknowledgement for one ingest request: the events are on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestAck {
    /// Events this request added.
    pub acked: usize,
    /// Total events durably applied since the log began.
    pub total_acked: usize,
}

/// The single-writer serving engine. See the module docs for the
/// ownership and durability story.
pub struct Engine {
    /// The replica ingest writes to; shared with the published snapshot
    /// only after a reader-held fallback, until the next write copies it.
    writer: Arc<ServeSnapshot>,
    /// Sub-batches applied to `writer` since the last publish.
    tickets: Vec<Ticket>,
    wal: cascade_store::ChunkWriter,
    frame_unit: usize,
    applied: usize,
    last_time: f64,
    since_snapshot: usize,
    config: EngineConfig,
    shared: Arc<SharedState>,
    recovery: RecoveryReport,
}

impl Engine {
    /// Opens the engine: one call covers both the fresh and the restart
    /// path.
    ///
    /// `model` is the serving base state (typically restored from a
    /// training checkpoint). If a WAL exists its valid prefix is
    /// recovered; if a durable snapshot exists it replaces replaying
    /// the prefix it covers, and only the tail beyond it is re-applied.
    /// Either way the resulting memories are bit-identical to the
    /// uninterrupted run over the acked events, because replay applies
    /// the exact original frame boundaries.
    ///
    /// # Errors
    ///
    /// Persistence errors ([`ServeError::Wal`]/[`ServeError::Snapshot`]),
    /// [`ServeError::SnapshotAheadOfWal`] when the snapshot's watermark
    /// exceeds what the WAL holds, and [`ServeError::ShapeMismatch`]
    /// when log, snapshot, and model disagree.
    pub fn open(mut model: MemoryTgnn, config: EngineConfig) -> Result<Engine, ServeError> {
        let num_nodes = model.num_nodes();
        let dim = model.edge_feat_dim();
        let wal = persist::open_wal(&config.wal_path, num_nodes, dim, config.wal_chunk)?;
        let wal_events: usize = wal.frames.iter().map(|f| f.events.len()).sum();

        let snapshot_events = match persist::load_snapshot(&mut model, &config.snapshot_path)? {
            Some(a) => a as usize,
            None => 0,
        };
        if snapshot_events > wal_events {
            return Err(ServeError::SnapshotAheadOfWal {
                snapshot: snapshot_events,
                wal: wal_events,
            });
        }

        let mut feats = if dim == 0 {
            EdgeFeatures::none()
        } else {
            EdgeFeatures::new(Vec::new(), dim)
        };
        let mut applied = 0usize;
        let mut last_time = f64::NEG_INFINITY;
        for frame in &wal.frames {
            let n = frame.events.len();
            feats.push_rows(&frame.features);
            if let Some(e) = frame.events.last() {
                last_time = last_time.max(e.time);
            }
            if applied + n <= snapshot_events {
                // Covered by the snapshot: memories already reflect
                // this frame; only the adjacency (excluded from state
                // blobs) needs rebuilding.
                model.replay_adjacency(&frame.events, applied);
            } else if applied >= snapshot_events {
                // Tail beyond the snapshot: re-apply with the original
                // frame as the batch — boundaries preserved, so the
                // mailbox consumption pattern (and therefore every
                // memory bit) matches the uninterrupted run.
                let fwd = model.forward_batch(&frame.events, applied, &feats);
                model.apply_batch(&frame.events, applied, &feats, fwd.pending);
            } else {
                return Err(ServeError::ShapeMismatch(format!(
                    "snapshot watermark {} falls inside a WAL frame ({}..{}); \
                     snapshots are only taken at frame boundaries",
                    snapshot_events,
                    applied,
                    applied + n
                )));
            }
            applied += n;
        }

        // Both replicas start as one state; the first write copies it.
        let writer = Arc::new(ServeSnapshot {
            model,
            feats,
            events: applied,
        });
        let shared = Arc::new(SharedState {
            snapshot: RwLock::new(writer.clone()),
            stats: Stats::default(),
        });
        shared
            .stats
            .events_acked
            .store(applied as u64, Ordering::Relaxed);
        shared
            .stats
            .events_published
            .store(applied as u64, Ordering::Relaxed);
        Ok(Engine {
            writer,
            tickets: Vec::new(),
            frame_unit: wal.chunk_size,
            applied,
            last_time,
            since_snapshot: 0,
            shared,
            recovery: RecoveryReport {
                wal_events,
                snapshot_events,
                torn_tail_discarded: wal.torn_tail.is_some(),
            },
            wal: wal.writer,
            config,
        })
    }

    /// What recovery found when this engine opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The state shared with predict workers (snapshots + stats).
    pub fn shared(&self) -> Arc<SharedState> {
        self.shared.clone()
    }

    /// Events durably applied so far.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// The serialized model state (for bit-identity checks in tests and
    /// tooling).
    pub fn export_state(&self) -> Vec<u8> {
        self.writer.model.export_state()
    }

    /// Durably writes, then acks, then applies `events` to the live
    /// model, and publishes a fresh read snapshot.
    ///
    /// The request is split into sub-batches of at most the WAL frame
    /// unit; each sub-batch is synced to the log *before* it touches
    /// memory, so the returned [`IngestAck`] guarantees every event
    /// survives a kill. Events must be time-ordered and not precede the
    /// served prefix.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for structural problems (out-of-range
    /// nodes, wrong feature width, time regressions) — the log and
    /// model are untouched in that case — and [`ServeError::Wal`] /
    /// [`ServeError::Snapshot`] for persistence failures.
    pub fn ingest(&mut self, events: &[Event], features: &[f32]) -> Result<IngestAck, ServeError> {
        if events.is_empty() {
            return Err(ServeError::BadRequest("empty ingest batch".to_string()));
        }
        let dim = self.writer.model.edge_feat_dim();
        if features.len() != events.len() * dim {
            return Err(ServeError::BadRequest(format!(
                "{} feature values for {} events of width {}",
                features.len(),
                events.len(),
                dim
            )));
        }
        let num_nodes = self.writer.model.num_nodes();
        let mut prev = self.last_time;
        for (i, e) in events.iter().enumerate() {
            if e.src.index() >= num_nodes || e.dst.index() >= num_nodes {
                return Err(ServeError::BadRequest(format!(
                    "event {} references node outside 0..{}",
                    i, num_nodes
                )));
            }
            if !e.time.is_finite() || e.time < prev {
                return Err(ServeError::BadRequest(format!(
                    "event {} breaks time order (t={}, previous {})",
                    i, e.time, prev
                )));
            }
            prev = e.time;
        }

        let mut done = 0usize;
        while done < events.len() {
            let n = (events.len() - done).min(self.frame_unit);
            let sub = &events[done..done + n];
            let rows = &features[done * dim..(done + n) * dim];
            for (i, e) in sub.iter().enumerate() {
                self.wal.push(*e, &rows[i * dim..(i + 1) * dim])?;
            }
            // Durability point: the frame is on disk before it can
            // influence any served score.
            let acked = self.wal.sync()?;
            self.shared
                .stats
                .events_acked
                .store(acked as u64, Ordering::Relaxed);
            let w = Arc::make_mut(&mut self.writer);
            w.feats.push_rows(rows);
            let fwd = w.model.forward_batch(sub, self.applied, &w.feats);
            self.tickets.push(Ticket {
                events: sub.to_vec(),
                first_id: self.applied,
                rows: rows.to_vec(),
                pending: fwd.pending.clone(),
            });
            w.model
                .apply_batch(sub, self.applied, &w.feats, fwd.pending);
            self.applied += n;
            w.events = self.applied;
            self.since_snapshot += n;
            done += n;
        }
        self.last_time = prev;
        self.publish();

        if self.config.snapshot_every > 0 && self.since_snapshot >= self.config.snapshot_every {
            self.snapshot_now()?;
        }
        Ok(IngestAck {
            acked: events.len(),
            total_acked: self.applied,
        })
    }

    /// Forces a durable state snapshot at the current watermark.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] on checkpoint failures.
    pub fn snapshot_now(&mut self) -> Result<(), ServeError> {
        persist::save_snapshot(
            &self.writer.model,
            &self.config.snapshot_path,
            self.applied as u64,
        )?;
        self.since_snapshot = 0;
        self.shared
            .stats
            .snapshots_written
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Publishes the writer replica and makes the retired one the next
    /// writer, caught up by replaying this request's tickets (see the
    /// module docs).
    fn publish(&mut self) {
        let retired = std::mem::replace(
            &mut *self
                .shared
                .snapshot
                .write()
                .unwrap_or_else(PoisonError::into_inner),
            self.writer.clone(),
        );
        let stats = &self.shared.stats;
        match Arc::try_unwrap(retired) {
            Ok(mut spare) => {
                for t in self.tickets.drain(..) {
                    spare.feats.push_rows(&t.rows);
                    spare
                        .model
                        .apply_batch(&t.events, t.first_id, &spare.feats, t.pending);
                }
                spare.events = self.applied;
                self.writer = Arc::new(spare);
                stats.publish_replays.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // A reader still holds the retired state: leave the
                // writer shared with the published snapshot, so the
                // next write copies it.
                self.tickets.clear();
                stats.publish_clones.fetch_add(1, Ordering::Relaxed);
            }
        }
        stats
            .events_published
            .store(self.applied as u64, Ordering::Relaxed);
    }
}
