//! Harness-side spans: recorded around the calls into each product
//! layer (never inside it), kept in memory in per-thread buffers, and
//! reduced to self times after the run.

use bytes::Bytes;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tpcx_iot::backend::{BackendResult, GatewayBackend, ResilienceCounters};

pub const INSERT: &str = "core.backend.insert";
pub const INSERT_BATCH: &str = "core.backend.insert_batch";
pub const SCAN_FOLD: &str = "core.backend.scan_fold";
pub const CLEANUP: &str = "core.runner.cleanup";
pub const MEASURE: &str = "workload.measure";

/// One recorded interval. `id`s are unique per tracer; `parent` is the
/// span that caused this one (0 = none); `op` numbers a thread's spans.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub thread: u32,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

type Buffer = Arc<parking_lot::Mutex<Vec<Span>>>;

static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's buffer in the tracer it last recorded for.
    static LOCAL: RefCell<Option<(u64, u32, Buffer)>> = const { RefCell::new(None) };
}

/// Collects spans from any number of threads. Each thread appends to a
/// buffer of its own (preallocated, its mutex never contended while the
/// run is live); the tracer reads them once the run has joined.
pub struct Tracer {
    tracer_id: u64,
    origin: Instant,
    capacity: usize,
    buffers: parking_lot::Mutex<Vec<Buffer>>,
    /// The span new top-level spans name as their cause.
    root: AtomicU64,
}

impl Tracer {
    /// `capacity` spans are preallocated per recording thread.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            // ordering: Relaxed — a unique-number dispenser, publishes nothing.
            tracer_id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            origin: Instant::now(),
            capacity,
            buffers: parking_lot::Mutex::new(Vec::new()),
            root: AtomicU64::new(0),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` on the calling thread's buffer (registering one on the
    /// thread's first span for this tracer).
    fn with_local<T>(&self, f: impl FnOnce(u32, &mut Vec<Span>) -> T) -> T {
        LOCAL.with(|slot| {
            let mut slot = slot.borrow_mut();
            if !matches!(slot.as_ref(), Some((id, _, _)) if *id == self.tracer_id) {
                let buf: Buffer =
                    Arc::new(parking_lot::Mutex::new(Vec::with_capacity(self.capacity)));
                let mut buffers = self.buffers.lock();
                *slot = Some((self.tracer_id, buffers.len() as u32, Arc::clone(&buf)));
                buffers.push(buf);
            }
            let (_, thread, buf) = slot.as_ref().expect("registered above");
            let mut spans = buf.lock();
            f(*thread, &mut spans)
        })
    }

    /// Records `[start_ns, now)` on the calling thread, caused by the
    /// current root span.
    pub fn record(&self, name: &'static str, start_ns: u64) {
        let end_ns = self.now_ns();
        // ordering: Relaxed — the root id is set before the traced
        // threads are spawned and cleared after they join.
        let parent = self.root.load(Ordering::Relaxed);
        self.with_local(|thread, spans| {
            let op = spans.len() as u64;
            spans.push(Span {
                name,
                id: ((thread as u64 + 1) << 40) | op,
                parent,
                thread,
                op,
                start_ns,
                end_ns,
            });
        })
    }

    /// Runs `f` as the root span `name`: every span recorded meanwhile
    /// without an explicit parent names it as its cause.
    pub fn root_span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        // The root is pushed after its children, so its id comes from a
        // reserved bit instead of its position in the buffer.
        let id = self.with_local(|thread, spans| {
            ((thread as u64 + 1) << 40) | (1 << 39) | spans.len() as u64
        });
        // ordering: Relaxed — see `record`.
        self.root.store(id, Ordering::Relaxed);
        let out = f();
        self.root.store(0, Ordering::Relaxed);
        let end_ns = self.now_ns();
        self.with_local(|thread, spans| {
            let op = spans.len() as u64;
            spans.push(Span {
                name,
                id,
                parent: 0,
                thread,
                op,
                start_ns,
                end_ns,
            });
        });
        out
    }

    /// Every span recorded so far, grouped by thread in recording order.
    pub fn spans(&self) -> Vec<Vec<Span>> {
        self.buffers
            .lock()
            .iter()
            .map(|b| b.lock().clone())
            .collect()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Children may nest, touch or overlap (children
/// on different threads do); each covered nanosecond is subtracted once.
pub fn self_time_ns(span: &Span, children: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration_ns() - covered
}

/// Driver-side time per backend call on one thread: the wall time from
/// the thread's first backend call to its last, minus the calls
/// themselves — datagen, measurement recording, retry bookkeeping and
/// query instantiation, everything `core::driver` does between calls.
pub fn thread_gap_ns(spans: &[Span]) -> u64 {
    let (Some(first), Some(last)) = (spans.first(), spans.last()) else {
        return 0;
    };
    let wall = Span {
        name: "core.driver.thread",
        id: 0,
        parent: 0,
        thread: first.thread,
        op: 0,
        start_ns: first.start_ns,
        end_ns: last.end_ns,
    };
    self_time_ns(&wall, spans)
}

/// The backend the traced pass hands to the driver: a span around every
/// call into the product's `GatewayBackend`.
pub struct TracedBackend {
    inner: Arc<dyn GatewayBackend>,
    tracer: Arc<Tracer>,
}

impl TracedBackend {
    fn observe<T>(&self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start = self.tracer.now_ns();
        let out = call();
        self.tracer.record(name, start);
        out
    }
}

impl GatewayBackend for TracedBackend {
    fn insert(&self, key: &[u8], value: &[u8]) -> BackendResult<()> {
        self.observe(INSERT, || self.inner.insert(key, value))
    }

    fn insert_batch(&self, items: &[(Bytes, Bytes)]) -> BackendResult<()> {
        self.observe(INSERT_BATCH, || self.inner.insert_batch(items))
    }

    fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> BackendResult<Vec<(Bytes, Bytes)>> {
        self.inner.scan(start, end, limit)
    }

    fn scan_fold(
        &self,
        start: &[u8],
        end: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> BackendResult<u64> {
        self.observe(SCAN_FOLD, || self.inner.scan_fold(start, end, visit))
    }

    fn replication_factor(&self) -> usize {
        self.inner.replication_factor()
    }

    fn ingested_count(&self) -> u64 {
        self.inner.ingested_count()
    }

    fn resilience(&self) -> ResilienceCounters {
        self.inner.resilience()
    }
}

/// How a pass observes the product. The untraced pass does not: the
/// driver gets the product's backend as it is, so nothing of the harness
/// runs on a client's path. (An earlier version timed every insert there
/// into one shared `Mutex<Vec>`; eight clients on two vCPUs queued behind
/// whichever of them was descheduled holding it, which cost a tenth of
/// the throughput and doubled its run-to-run spread.)
#[derive(Clone, Default)]
pub struct Instrument {
    tracer: Option<Arc<Tracer>>,
}

impl Instrument {
    pub fn untraced() -> Instrument {
        Instrument::default()
    }

    pub fn traced(tracer: Tracer) -> Instrument {
        Instrument {
            tracer: Some(Arc::new(tracer)),
        }
    }

    /// The backend to hand to the driver: `inner` itself, or `inner`
    /// with a span around every call when tracing.
    pub fn wrap(&self, inner: Arc<dyn GatewayBackend>) -> Arc<dyn GatewayBackend> {
        match &self.tracer {
            Some(tracer) => Arc::new(TracedBackend {
                inner,
                tracer: Arc::clone(tracer),
            }),
            None => inner,
        }
    }

    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Runs the measured section, as the root span when tracing.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(tracer) => tracer.root_span(MEASURE, f),
            None => f(),
        }
    }
}

/// Writes spans as CSV (`name,id,parent,thread,op,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,id,parent,thread,op,start_ns,end_ns")?;
    for s in threads.iter().flatten() {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.name, s.id, s.parent, s.thread, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            id: 1,
            parent: 0,
            thread: 0,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        let parent = span(0, 100);
        // Two children touching at 40: 30 + 20 covered.
        assert_eq!(self_time_ns(&parent, &[span(10, 40), span(40, 60)]), 50);
        assert_eq!(self_time_ns(&parent, &[]), 100);
    }

    #[test]
    fn self_time_counts_nested_and_overlapping_children_once() {
        let parent = span(0, 100);
        // A grandchild inside a child adds nothing; an overlap is merged.
        let kids = [span(10, 50), span(20, 30), span(45, 70)];
        assert_eq!(self_time_ns(&parent, &kids), 40);
        // Children are clipped to the parent's interval.
        assert_eq!(self_time_ns(&parent, &[span(90, 150)]), 90);
    }

    #[test]
    fn thread_gap_is_the_time_between_calls() {
        let spans = [span(100, 150), span(160, 200), span(230, 300)];
        assert_eq!(thread_gap_ns(&spans), 40);
        assert_eq!(thread_gap_ns(&[]), 0);
    }

    #[test]
    fn tracer_attributes_spans_to_threads_and_root() {
        let tracer = Arc::new(Tracer::new(16));
        tracer.root_span(MEASURE, || {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let tracer = Arc::clone(&tracer);
                    s.spawn(move || {
                        for _ in 0..3 {
                            let t0 = tracer.now_ns();
                            tracer.record(INSERT, t0);
                        }
                    });
                }
            });
        });
        let threads = tracer.spans();
        assert_eq!(threads.len(), 3, "main + two workers");
        let root = threads[0].last().unwrap().clone();
        assert_eq!(root.name, MEASURE);
        for worker in &threads[1..] {
            assert_eq!(worker.len(), 3);
            assert!(worker.iter().all(|s| s.parent == root.id));
            assert_eq!(
                worker.iter().map(|s| s.op).collect::<Vec<_>>(),
                vec![0, 1, 2]
            );
        }
    }
}
