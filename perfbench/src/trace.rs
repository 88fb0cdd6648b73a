//! The traced run's instrumentation: in-memory spans around the calls the
//! benchmark makes into each layer, and a timing decorator for installed
//! workloads.
//!
//! Spans are kept in memory and written out once, when the run ends.
//! Workload hooks fire millions of times per run, so they are not spans of
//! their own: each step span carries the count and host time of the hooks
//! that ran inside it, which is what a layer's self time needs.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sabre_rack::{CoreApi, Workload};
use sabre_sonuma::CqEntry;

/// One recorded interval of host time.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `rack.cluster.new`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The `(node, core)` the call concerns, if it concerns one.
    pub core: Option<(usize, usize)>,
    /// Workload hook calls that ran inside the span.
    pub hook_calls: u64,
    /// Host ns those hook calls took.
    pub hook_ns: u64,
}

impl Span {
    /// Host ns the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Shared count and host time of every wrapped workload's hook calls.
#[derive(Debug, Default)]
struct HookClock {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl HookClock {
    fn add(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        // Statistics only: nothing else is published through these words.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// `(calls, ns)` so far.
    fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// A workload whose every hook call is timed into a [`HookClock`].
struct Timed {
    inner: Box<dyn Workload>,
    clock: Arc<HookClock>,
}

impl Workload for Timed {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        let t = Instant::now();
        self.inner.on_start(api);
        self.clock.add(t);
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        let t = Instant::now();
        self.inner.on_wake(api);
        self.clock.add(t);
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        let t = Instant::now();
        self.inner.on_completion(api, cq);
        self.clock.add(t);
    }

    fn on_rpc(&mut self, api: &mut CoreApi<'_>, src_node: u8, src_core: u8, tag: u64, bytes: u32) {
        let t = Instant::now();
        self.inner.on_rpc(api, src_node, src_core, tag, bytes);
        self.clock.add(t);
    }

    fn on_rpc_reply(&mut self, api: &mut CoreApi<'_>, tag: u64, bytes: u32) {
        let t = Instant::now();
        self.inner.on_rpc_reply(api, tag, bytes);
        self.clock.add(t);
    }
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Spans opened and not yet closed, innermost last.
    open: Vec<usize>,
    clock: Arc<HookClock>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            clock: Arc::new(HookClock::default()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now, nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.ns(Instant::now());
        let (hook_calls, hook_ns) = self.clock.read();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            core: None,
            // Hook totals at open; `close` turns them into the span's share.
            hook_calls,
            hook_ns,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) now, charging it the hook
    /// calls that ran while it was open.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.ns(Instant::now());
        let (calls, ns) = self.clock.read();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.hook_calls = calls - span.hook_calls;
        span.hook_ns = ns - span.hook_ns;
    }

    /// Records a finished call as a child of the innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        core: Option<(usize, usize)>,
    ) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            core,
            hook_calls: 0,
            hook_ns: 0,
        };
        self.spans.push(span);
    }

    /// Wraps `workload` so that its hook calls are timed into this
    /// tracer's clock.
    pub fn wrap(&self, workload: Box<dyn Workload>) -> Box<dyn Workload> {
        Box::new(Timed {
            inner: workload,
            clock: Arc::clone(&self.clock),
        })
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let core = s
                .core
                .map_or("null".to_string(), |(n, c)| format!("\"{n}.{c}\""));
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{workload}\",\
                 \"core\":{core},\"start_ns\":{},\"end_ns\":{},\"hook_calls\":{},\"hook_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.hook_calls, s.hook_ns
            )?;
        }
        out.flush()
    }
}
