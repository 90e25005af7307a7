//! In-memory spans around the calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! id of the request it belongs to. Spans are kept in memory and
//! written out once, when the run ends. A layer's self time is its
//! span's duration minus the part covered by its child spans.
//!
//! Some work happens inside a library call the benchmark cannot split
//! (the checker build inside a campaign, HLS synthesis inside a fleet
//! batch). The traced run re-measures such work with a *probe*: a
//! separate call of the same function on the same input, recorded as
//! its own span and attributed to the span whose call contains it. The
//! probe's time is taken out of that span's self time, so the self
//! times of one request still add up to the request's real duration.
//! A probe attributed to nothing (untraced execution, item 1's
//! ceiling) is reported but stays out of the accounting.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// What a span stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Work on the request's path.
    Path,
    /// A re-measurement of work done inside another span (`Some`), or
    /// extra work off the request's path (`None`).
    Probe(Option<SpanId>),
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`parse`, `execute.traced`, …).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// The request the span belongs to.
    pub request: u64,
    /// Path work or a probe.
    pub kind: Kind,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off, `begin`/`end` cost one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    request: u64,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether spans are recorded. Probes run only when they are: an
    /// untraced replay does exactly the work of the request path.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Sets the request id of the spans that follow.
    pub fn request(&mut self, id: u64) {
        self.request = id;
    }

    fn open(&mut self, name: &'static str, kind: Kind) -> SpanId {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
            kind,
        });
        self.open.push(id);
        id
    }

    /// Opens a path span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        self.open(name, Kind::Path)
    }

    /// Opens a probe re-measuring work inside `inside` (or off-path).
    pub fn probe(&mut self, name: &'static str, inside: Option<SpanId>) -> SpanId {
        self.open(name, Kind::Probe(inside))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, ns.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur());
            }
            if let Kind::Probe(Some(inside)) = s.kind {
                own[inside] = own[inside].saturating_sub(s.dur());
            }
        }
        own
    }

    /// Total duration of every probe, ns — the work the traced run does
    /// that the untraced run does not.
    pub fn probe_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind != Kind::Path)
            .map(Span::dur)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let inside = match s.kind {
                Kind::Path => "\"path\"".to_string(),
                Kind::Probe(None) => "\"probe\"".to_string(),
                Kind::Probe(Some(p)) => format!("\"probe-in-{p}\""),
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"kind\":{inside}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_attributed_probes() {
        let mut t = Tracer::new(true);
        t.request(7);
        let root = t.begin("request");
        let batch = t.begin("batch");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(batch);
        let probe = t.probe("synth", Some(batch));
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end(probe);
        t.end(root);
        let own = t.self_times();
        let dur = |i: usize| t.spans()[i].end_ns - t.spans()[i].start_ns;
        assert_eq!(own[batch], dur(batch) - dur(probe));
        assert_eq!(own[root], dur(root) - dur(batch) - dur(probe));
        assert!(t.spans().iter().all(|s| s.request == 7));
        assert_eq!(t.spans()[batch].parent, Some(root));
        // The probe re-measured work already inside `batch`: the request's
        // self times add up to its duration minus the probe's.
        assert_eq!(own.iter().sum::<u64>(), dur(root) - dur(probe));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
