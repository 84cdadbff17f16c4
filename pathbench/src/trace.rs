//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start and an end (microseconds since the tracer
//! was made), a parent and the id of the op it belongs to. Spans nest by
//! call: [`Tracer::op`] opens a root span with a fresh op id, and
//! [`Tracer::span`] opens a child of the innermost open span. A *probe*
//! ([`Tracer::probe`]) is an extra call timed after the op, outside its
//! interval, that splits one of the op's spans into children: its parent
//! is that span, but it does not count towards the op's own time.
//!
//! A span's self time is its duration minus the durations of all its
//! children, probes included. With the tracer disabled every method just
//! runs its closure.

use std::io::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    pub probe: bool,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 1,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (the traced run alternates, so that
    /// tracing overhead can be measured within one run).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Runs `f` as a new op's root span; returns its result and span index.
    pub fn op<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(self), None);
        }
        let op = self.next_op;
        self.next_op += 1;
        self.open(name, op, None, false, f)
    }

    /// Runs `f` as a child span of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(self), None);
        }
        let parent = self.stack.last().copied();
        let op = parent.map_or(0, |p| self.spans[p].op);
        self.open(name, op, parent, false, f)
    }

    /// Runs `f` as a probe child of span `parent` (timed outside the op).
    pub fn probe<T>(
        &mut self,
        parent: Option<usize>,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Option<usize>) {
        match parent {
            Some(p) if self.enabled => {
                let op = self.spans[p].op;
                let saved = std::mem::take(&mut self.stack);
                let out = self.open(name, op, Some(p), true, f);
                self.stack = saved;
                out
            }
            _ => (f(self), None),
        }
    }

    fn open<T>(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        probe: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Option<usize>) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            op,
            parent,
            start_us: 0.0,
            end_us: 0.0,
            probe,
        });
        self.stack.push(idx);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        let (s, e) = (self.us(start), self.us(end));
        self.spans[idx].start_us = s;
        self.spans[idx].end_us = e;
        (out, Some(idx))
    }

    /// Records a span timed elsewhere (another thread). With no parent it
    /// is the root of a new op.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op - 1
            }
        };
        let (s, e) = (self.us(start), self.us(end));
        self.spans.push(Span {
            name: name.to_string(),
            op,
            parent,
            start_us: s,
            end_us: e,
            probe: false,
        });
        Some(self.spans.len() - 1)
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.stack.last().copied()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus all children's durations.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut self_us: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_us[p] -= s.dur_us();
            }
        }
        self_us
    }

    /// Per op root named in `ops`: the share of its duration not covered
    /// by its direct (non-probe) children.
    pub fn unaccounted_shares(&self, ops: &[&str]) -> Vec<f64> {
        let mut covered: Vec<Option<f64>> = vec![None; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), false) = (s.parent, s.probe) {
                *covered[p].get_or_insert(0.0) += s.dur_us();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .filter(|(s, _)| s.parent.is_none() && ops.contains(&s.name.as_str()))
            .filter_map(|(s, c)| c.map(|c| ((s.dur_us() - c) / s.dur_us()).max(0.0)))
            .collect()
    }

    /// Writes the spans of ops `1..=max_ops`, one JSON line each (ids
    /// are indices into all spans, so parents resolve). Returns how many
    /// spans were written.
    pub fn write_jsonl(&self, path: &std::path::Path, max_ops: u64) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.op > max_ops {
                continue;
            }
            written += 1;
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"probe\":{}}}",
                s.name, s.op, s.start_us, s.end_us, s.probe
            )?;
        }
        out.flush()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_probes_split_self_time() {
        let mut t = Tracer::new(true);
        let ((), root) = t.op("op", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let child = t.spans().iter().position(|s| s.name == "child");
        t.probe(child, "probe", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, root);
        assert!(spans[2].probe && spans[2].parent == child);
        assert_eq!(spans[2].op, spans[0].op);
        let self_us = t.self_times_us();
        assert!(self_us[1] < spans[1].dur_us() - 900.0);
        let shares = t.unaccounted_shares(&["op"]);
        assert_eq!(shares.len(), 1);
        assert!(t.unaccounted_shares(&["other"]).is_empty());
        assert!(shares[0] < 0.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, idx) = t.op("op", |t| t.span("x", |_| 7).0);
        assert_eq!((v, idx), (7, None));
        assert!(t.spans().is_empty());
    }
}
