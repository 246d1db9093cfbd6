//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `{id, name, start_ns, end_ns, parent, op_id}`; `name` is
//! `<layer>.<call>` and the spans of one client operation share `op_id`.
//! Spans stay in memory until the replay ends. A span's *self time* is its
//! duration minus the part its children cover; summing self times by layer
//! over one operation gives terms that add up to the operation's duration
//! exactly, because the operation's root span is itself attributed to a
//! layer (the client machine's own code runs there).

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// At most this many spans are written to the trace file.
const FILE_SPAN_CAP: usize = 50_000;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u32,
}

/// An open span; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op_id: u32,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    /// Record spans from now on, or stop (between operations only).
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.recording = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans entered from now on belong to a new operation.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.recording {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id: self.op_id,
        });
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.recording {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in the order they opened");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The trace file: the first [`FILE_SPAN_CAP`] spans, one object each.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .take(FILE_SPAN_CAP)
            .enumerate()
            .map(|(id, s)| {
                let parent = if s.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::Num(f64::from(s.parent))
                };
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", parent),
                    ("op_id", Json::Num(f64::from(s.op_id))),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(workload.to_string())),
            ("spans_recorded", Json::Num(self.spans.len() as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// One replayed operation, folded: its duration and its self time by layer.
#[derive(Debug, Clone)]
pub struct OpCost {
    pub root: &'static str,
    pub total_ns: u64,
    pub by_layer: BTreeMap<&'static str, u64>,
}

/// Fold the spans into one [`OpCost`] per operation (per root span).
pub fn op_costs(tracer: &Tracer) -> Vec<OpCost> {
    let own = tracer.self_times();
    let mut ops: BTreeMap<u32, OpCost> = BTreeMap::new();
    for (i, s) in tracer.spans().iter().enumerate() {
        let op = ops.entry(s.op_id).or_insert_with(|| OpCost {
            root: "",
            total_ns: 0,
            by_layer: BTreeMap::new(),
        });
        if s.parent == NO_PARENT {
            op.root = s.name;
            op.total_ns += s.end_ns - s.start_ns;
        }
        let layer: &'static str = match s.name.find('.') {
            Some(dot) => &s.name[..dot],
            None => s.name,
        };
        *op.by_layer.entry(layer).or_insert(0) += own[i];
    }
    ops.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let mut t = Tracer::new(true);
        t.next_op();
        let root = t.enter("protocol.client_write");
        let a = t.enter("rt.send");
        let b = t.enter("protocol.encode");
        t.exit(b);
        t.exit(a);
        let c = t.enter("storage.commit");
        t.exit(c);
        t.exit(root);
        let ops = op_costs(&t);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].root, "protocol.client_write");
        assert_eq!(ops[0].by_layer.values().sum::<u64>(), ops[0].total_ns);
        assert!(ops[0].by_layer.contains_key("storage"));
    }
}
