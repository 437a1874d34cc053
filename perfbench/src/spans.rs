//! The benchmark's own spans: one around each call it makes into a layer.
//!
//! A span records its name, its parent, and its start and end on one
//! monotonic clock. Spans stay in memory while the workload runs and are
//! written out once it has finished. A disabled recorder stores nothing,
//! so the untraced runs that give the end-to-end metrics pay one branch
//! per call.

use std::sync::Mutex;
use std::time::Instant;

/// Handle of a started span; [`SpanId::ROOT`] when there is no parent or
/// the recorder is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No span: the parent of top-level spans.
    pub const ROOT: SpanId = SpanId(None);
}

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called, e.g. `exp:fig6` or `core:packing:pim-acc:paper`.
    pub name: String,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created (equal to the start
    /// while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder, shared by reference across threads.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Spans {
    /// A recorder that stores spans when `enabled`, and nothing otherwise.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under `parent`.
    pub fn begin(&self, name: impl Into<String>, parent: SpanId) -> SpanId {
        let Some(spans) = &self.spans else {
            return SpanId::ROOT;
        };
        let now = self.now_ns();
        let mut v = spans
            .lock()
            .expect("span recorder poisoned by a panicking job");
        v.push(Span {
            name: name.into(),
            parent: parent.0,
            start_ns: now,
            end_ns: now,
        });
        SpanId(Some(v.len() - 1))
    }

    /// Close a span opened by [`Spans::begin`].
    pub fn end(&self, id: SpanId) {
        let (Some(spans), Some(i)) = (&self.spans, id.0) else {
            return;
        };
        let now = self.now_ns();
        spans
            .lock()
            .expect("span recorder poisoned by a panicking job")[i]
            .end_ns = now;
    }

    /// Run `f` inside a span named `name`; `f` gets the span's id so it
    /// can open children.
    pub fn scope<T>(
        &self,
        name: impl Into<String>,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f(id);
        self.end(id);
        out
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| {
                s.lock()
                    .expect("span recorder poisoned by a panicking job")
                    .clone()
            })
            .unwrap_or_default()
    }
}

/// Self time of `spans[idx]`: its duration minus the part of it that its
/// direct children cover. Overlapping children are counted once.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration_ns() - covered
}

/// The spans as a JSON array, with each span's self time.
pub fn to_json(spans: &[Span]) -> String {
    use pim_core::JsonValue;
    let mut arr = JsonValue::array();
    for (i, s) in spans.iter().enumerate() {
        let mut o = JsonValue::object()
            .set("id", i as u64)
            .set("name", s.name.as_str())
            .set("start_ns", s.start_ns)
            .set("end_ns", s.end_ns)
            .set("self_ns", self_time_ns(spans, i));
        if let Some(p) = s.parent {
            o = o.set("parent", p as u64);
        }
        arr = arr.push(o);
    }
    arr.render()
}
