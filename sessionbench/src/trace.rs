//! In-memory spans around calls into each crate's public functions.
//!
//! A span records its name, parent, the group it belongs to (one proxy
//! session, one serve tick, one reactor fleet), wall-clock start and end,
//! and the allocations made inside it. A layer's self time is its span's
//! duration minus the part its child spans cover. Spans stay in memory
//! and are written out once, when the run ends.

use crate::alloc;
use annolight_support::json::Json;
use annolight_support::json_obj;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `codec.encode`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The request the span belongs to.
    pub group: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Allocations made while the span was open.
    pub allocs: u64,
    /// Bytes requested while the span was open.
    pub bytes: u64,
}

/// Self time and allocations of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTotals {
    /// Spans recorded.
    pub count: u64,
    /// Self time, nanoseconds.
    pub ns: u64,
    /// Self allocations.
    pub allocs: u64,
    /// Self bytes requested.
    pub bytes: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    group: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
        }
    }

    /// Tags the spans opened from now on with `group`.
    pub fn set_group(&mut self, group: u32) {
        self.group = group;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let (allocs, bytes) = alloc::snapshot();
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            group: self.group,
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs,
            bytes,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: u32) {
        let end = self.now_ns();
        let (allocs, bytes) = alloc::snapshot();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        let span = &mut self.spans[idx as usize];
        span.end_ns = end;
        span.allocs = allocs - span.allocs;
        span.bytes = bytes - span.bytes;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Self totals per span name.
    #[must_use]
    pub fn self_totals(&self) -> BTreeMap<&'static str, SelfTotals> {
        let mut child = vec![(0u64, 0u64, 0u64); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let c = &mut child[p as usize];
                c.0 += s.end_ns - s.start_ns;
                c.1 += s.allocs;
                c.2 += s.bytes;
            }
        }
        let mut totals: BTreeMap<&'static str, SelfTotals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.ns += (s.end_ns - s.start_ns).saturating_sub(c.0);
            t.allocs += s.allocs.saturating_sub(c.1);
            t.bytes += s.bytes.saturating_sub(c.2);
        }
        totals
    }

    /// The self totals plus up to `max_spans` raw spans.
    #[must_use]
    pub fn to_json(&self, max_spans: usize) -> Json {
        let totals = self
            .self_totals()
            .into_iter()
            .map(|(name, t)| {
                let total = json_obj!({
                    "count": t.count,
                    "self_ns": t.ns,
                    "allocs": t.allocs,
                    "bytes": t.bytes,
                });
                (name.to_owned(), total)
            })
            .collect();
        let spans: Vec<Json> = self
            .spans
            .iter()
            .take(max_spans)
            .enumerate()
            .map(|(id, s)| {
                json_obj!({
                    "id": id,
                    "name": s.name,
                    "parent": s.parent,
                    "group": s.group,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "allocs": s.allocs,
                    "bytes": s.bytes,
                })
            })
            .collect();
        json_obj!({
            "self_totals": Json::Obj(totals),
            "spans_total": self.spans.len(),
            "spans": spans,
        })
    }
}
