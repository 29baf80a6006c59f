//! Benchmark-side spans: recorded around calls into the workspace's
//! public functions, kept in memory, and written out when a traced run
//! ends as Chrome Trace Event JSON plus a per-layer self-time table.
//!
//! Recording is off unless [`enable`] was called, so untraced runs pay
//! one relaxed atomic load per would-be span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the trace epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer metric name, e.g. `model.forward`.
    pub name: &'static str,
    /// Small per-process thread number (0 = first thread that recorded).
    pub thread: usize,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
    /// Index (in the finished list) of the enclosing span on the same
    /// thread, when there is one.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Bumped by [`drain`], so a span still open across a drain neither
/// writes into nor parents spans of the next generation.
static GENERATION: AtomicUsize = AtomicUsize::new(0);

/// Per-thread state: trace thread number and the open-span stack of
/// (generation, slot in FINISHED).
struct ThreadState {
    id: usize,
    open: Vec<(usize, usize)>,
}

thread_local! {
    static THREAD: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off (spans already open still close normally).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// This thread's trace thread number.
pub fn thread_id() -> usize {
    THREAD.with(|t| {
        t.borrow_mut()
            .get_or_insert_with(|| ThreadState {
                id: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                open: Vec::new(),
            })
            .id
    })
}

/// An open span; records its end when dropped.
pub struct Guard {
    slot: Option<(usize, usize)>,
}

/// Opens a span named `name` on the current thread (no-op when
/// recording is off).
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { slot: None };
    }
    let thread = thread_id();
    let start = now_ns();
    let slot = THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let state = t.as_mut().expect("thread_id initialised the state");
        let mut spans = FINISHED.lock().expect("span list poisoned by a panic");
        let generation = GENERATION.load(Ordering::SeqCst);
        let parent = state
            .open
            .last()
            .filter(|(g, _)| *g == generation)
            .map(|(_, p)| *p);
        spans.push(Span {
            name,
            thread,
            start,
            end: start,
            parent,
        });
        let slot = (generation, spans.len() - 1);
        state.open.push(slot);
        slot
    });
    Guard { slot: Some(slot) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((generation, slot)) = self.slot else {
            return;
        };
        let end = now_ns();
        THREAD.with(|t| {
            if let Some(state) = t.borrow_mut().as_mut() {
                state.open.pop();
            }
        });
        if let Ok(mut spans) = FINISHED.lock() {
            if GENERATION.load(Ordering::SeqCst) == generation {
                spans[slot].end = end;
            }
        }
    }
}

/// Times `f` under a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Takes every recorded span out of the recorder.
pub fn drain() -> Vec<Span> {
    let mut spans = FINISHED.lock().expect("span list poisoned by a panic");
    GENERATION.fetch_add(1, Ordering::SeqCst);
    std::mem::take(&mut *spans)
}

/// Per-name self time (duration minus the time covered by child spans)
/// for the spans of `thread`, plus the residual of `[from, to)` that no
/// root span of that thread covers. Rows plus residual equal `to - from`.
#[derive(Clone, Debug, Default)]
pub struct SelfTimes {
    /// Self time per span name, ns.
    pub rows: BTreeMap<&'static str, u64>,
    /// Wall time not covered by any root span, ns.
    pub residual: u64,
    /// The wall interval length, ns.
    pub wall: u64,
}

impl SelfTimes {
    /// Self time of `name` in seconds (0 when it never ran).
    pub fn secs(&self, name: &str) -> f64 {
        self.rows.get(name).copied().unwrap_or(0) as f64 / 1e9
    }
}

/// Computes the self-time table of `thread` over `[from, to)`.
///
/// # Panics
///
/// Panics when the spans do not nest (a child outside its parent, or
/// overlapping roots): the table would not sum to the wall time.
pub fn self_times(spans: &[Span], thread: usize, from: u64, to: u64) -> SelfTimes {
    let mut child_cover = vec![0u64; spans.len()];
    let mut rows: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut covered = 0u64;
    let mut last_root_end = from;
    for s in spans.iter().filter(|s| s.thread == thread) {
        assert!(s.end >= s.start, "span {} ends before it starts", s.name);
        match s.parent {
            Some(p) => {
                let parent = &spans[p];
                assert!(
                    parent.thread == s.thread && parent.start <= s.start && s.end <= parent.end,
                    "span {} does not nest inside {}",
                    s.name,
                    parent.name
                );
                child_cover[p] += s.dur();
            }
            None if s.start >= from && s.end <= to => {
                assert!(s.start >= last_root_end, "root span {} overlaps", s.name);
                last_root_end = s.end;
                covered += s.dur();
            }
            None => continue,
        }
    }
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.thread == thread) {
        let root = root_of(spans, i);
        if spans[root].start < from || spans[root].end > to {
            continue;
        }
        let own = s
            .dur()
            .checked_sub(child_cover[i])
            .unwrap_or_else(|| panic!("children of span {} overlap", s.name));
        *rows.entry(s.name).or_default() += own;
    }
    SelfTimes {
        rows,
        residual: (to - from) - covered,
        wall: to - from,
    }
}

fn root_of(spans: &[Span], mut i: usize) -> usize {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    i
}

/// Total duration of root spans on threads other than `thread`, per
/// name (work overlapped with the driver, e.g. a loader thread).
pub fn off_thread_busy(
    spans: &[Span],
    thread: usize,
    from: u64,
    to: u64,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        if s.thread != thread && s.parent.is_none() && s.start >= from && s.end <= to {
            *out.entry(s.name).or_default() += s.dur();
        }
    }
    out
}

/// Renders spans as Chrome Trace Event JSON (complete `X` events, µs),
/// which Perfetto and `chrome://tracing` open directly.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or(-1i64, |p| p as i64);
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}{}",
            s.name,
            s.thread,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            i,
            parent,
            sep
        );
    }
    out.push_str("]}\n");
    out
}

/// Renders the self-time table: one row per span name, the residual,
/// and the wall total they sum to.
pub fn table(t: &SelfTimes, off_thread: &BTreeMap<&'static str, u64>) -> String {
    let mut out = String::new();
    let wall = t.wall.max(1) as f64;
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>8}",
        "layer (driver thread)", "self_s", "share"
    );
    for (name, ns) in &t.rows {
        let _ = writeln!(
            out,
            "{:<28} {:>12.6} {:>7.2}%",
            name,
            *ns as f64 / 1e9,
            *ns as f64 / wall * 100.0
        );
    }
    let _ = writeln!(
        out,
        "{:<28} {:>12.6} {:>7.2}%",
        "(residual)",
        t.residual as f64 / 1e9,
        t.residual as f64 / wall * 100.0
    );
    let _ = writeln!(out, "{:<28} {:>12.6}", "= wall", t.wall as f64 / 1e9);
    for (name, ns) in off_thread {
        let _ = writeln!(
            out,
            "{:<28} {:>12.6}   (other threads, overlapped)",
            name,
            *ns as f64 / 1e9
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, thread: usize, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            thread,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_times_sum_to_wall() {
        let spans = vec![
            s("a", 0, 10, 50, None),
            s("b", 0, 12, 20, Some(0)),
            s("c", 0, 14, 16, Some(1)),
            s("b", 0, 30, 45, Some(0)),
            s("loader", 1, 0, 90, None),
            s("d", 0, 60, 70, None),
        ];
        let t = self_times(&spans, 0, 0, 100);
        assert_eq!(t.rows["a"], 40 - 8 - 15);
        assert_eq!(t.rows["b"], 8 - 2 + 15);
        assert_eq!(t.rows["c"], 2);
        assert_eq!(t.rows["d"], 10);
        assert_eq!(t.residual, 100 - 40 - 10);
        assert_eq!(t.rows.values().sum::<u64>() + t.residual, t.wall);
        assert_eq!(off_thread_busy(&spans, 0, 0, 100)["loader"], 90);
    }

    #[test]
    #[should_panic(expected = "does not nest")]
    fn escaping_child_is_rejected() {
        let spans = vec![s("a", 0, 10, 20, None), s("b", 0, 15, 25, Some(0))];
        self_times(&spans, 0, 0, 30);
    }
}
