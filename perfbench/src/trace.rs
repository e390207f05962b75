//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around each call
//! into a layer; nothing inside the crates is instrumented. With tracing
//! off every entry point here is a flag test and nothing else, which is
//! what lets the untraced run measure the end-to-end metrics.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::io::Write;
use std::path::Path;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

/// One closed span. `parent` indexes the span list (`u32::MAX` = root);
/// spans of one op share `op`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept for the trace file; later spans still count in [`totals`].
/// Bounds the traced run's memory: an open-loop run closes a span per
/// recorded flow, over a million in a long run.
pub const MAX_KEPT_SPANS: usize = 100_000;

struct Tracer {
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
    /// Index of each open span in `spans`, `u32::MAX` when not kept.
    stack: Vec<u32>,
    /// Per-name `(count, total host ns)` over every closed span.
    totals: BTreeMap<&'static str, (u64, u64)>,
    dropped: u64,
    /// Host nanoseconds spent inside [`Timed`] polls.
    poll_ns: u64,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn close(&mut self, name: &'static str, idx: u32, start_ns: u64, end_ns: u64) {
        let e = self.totals.entry(name).or_default();
        e.0 += 1;
        e.1 += end_ns - start_ns;
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Append a span (open when `end_ns` is 0); returns its index or
    /// `u32::MAX` once the kept-span budget is spent.
    fn keep(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        if self.spans.len() >= MAX_KEPT_SPANS {
            self.dropped += 1;
            return u32::MAX;
        }
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        self.spans.push(Span {
            op: self.op,
            parent,
            name,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        op: 0,
        spans: Vec::new(),
        stack: Vec::new(),
        totals: BTreeMap::new(),
        dropped: 0,
        poll_ns: 0,
    });
}

pub fn enabled() -> bool {
    ON.with(Cell::get)
}

pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

/// Start a new op: later spans carry its id, one more than the last op's.
pub fn begin_op() {
    if enabled() {
        TRACER.with(|t| t.borrow_mut().op += 1);
    }
}

/// An open span; closes when dropped. Spans must close in LIFO order,
/// which holds because the benchmark opens them only around sequential
/// calls.
#[must_use]
pub struct Guard(Option<(&'static str, u32, u64)>);

pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let start = t.now();
        let idx = t.keep(name, start, 0);
        t.stack.push(idx);
        Guard(Some((name, idx, start)))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((name, idx, start)) = self.0 {
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                let now = t.now();
                t.close(name, idx, start, now);
                let top = t.stack.pop();
                debug_assert_eq!(top, Some(idx), "spans closed out of order");
            });
        }
    }
}

/// Host nanoseconds spent in [`Timed`] polls so far.
pub fn poll_ns() -> u64 {
    TRACER.with(|t| t.borrow().poll_ns)
}

/// Poll-timing wrapper for the futures the benchmark hands the executor.
/// `block_on` time minus wrapped-poll time is the executor's self time
/// (plus polls of tasks the crates spawn internally, which are not
/// wrapped).
pub struct Timed<F> {
    inner: Pin<Box<F>>,
    on: bool,
}

pub fn timed<F: Future>(fut: F) -> Timed<F> {
    Timed {
        inner: Box::pin(fut),
        on: enabled(),
    }
}

impl<F: Future> Future for Timed<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        if !self.on {
            return self.inner.as_mut().poll(cx);
        }
        let t0 = Instant::now();
        let out = self.inner.as_mut().poll(cx);
        let dt = t0.elapsed().as_nanos() as u64;
        TRACER.with(|t| t.borrow_mut().poll_ns += dt);
        out
    }
}

/// Per-name `(count, total host ns)` over every closed span, kept or not.
pub fn totals() -> BTreeMap<&'static str, (u64, u64)> {
    TRACER.with(|t| t.borrow().totals.clone())
}

/// Spans closed after the kept-span budget was spent.
pub fn dropped() -> u64 {
    TRACER.with(|t| t.borrow().dropped)
}

/// Record a computed interval ending now as a closed span: used for
/// executor self time, which is derived, not observed.
pub fn add_total(name: &'static str, ns: u64) {
    if enabled() {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.now();
            let start = end.saturating_sub(ns);
            let idx = t.keep(name, start, end);
            t.close(name, idx, start, end);
        });
    }
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    TRACER.with(|t| -> std::io::Result<()> {
        for (i, s) in t.borrow().spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    })?;
    w.flush()
}

/// Drop every recorded span (tests run several traced runs per thread).
pub fn reset() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.spans.clear();
        t.stack.clear();
        t.totals.clear();
        t.dropped = 0;
        t.poll_ns = 0;
        t.op = 0;
    });
}
