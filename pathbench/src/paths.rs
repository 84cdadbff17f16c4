//! The user-visible paths, each as one op from input bytes to output
//! bytes, with the layer spans the traced run records around each public
//! call and the probes that split a span into its layers.

use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use xmlmap_core::{reduce_solution, EngineContext, IncrementalChase, Mapping, Update};
use xmlmap_dtd::{DtdIndex, StreamValidator};
use xmlmap_patterns::{CompiledPattern, Matcher, StreamEnumerator, StreamPattern};
use xmlmap_trees::{xml, Name, SaxEvent, SaxReader, Tree, Value};

/// The chase kernel enumerates std firings on parallel workers once the
/// source reaches this many nodes (mirrors `core::stds::PAR_NODE_THRESHOLD`);
/// the match probe does the same so that it times the same wall-clock work.
const PAR_NODE_THRESHOLD: usize = 256;

/// One mapping's compiled view for the probes.
pub struct Probes {
    pub mapping: Arc<Mapping>,
    compiled: Vec<CompiledPattern>,
    stream_plans: Vec<StreamPattern>,
    index: Arc<DtdIndex>,
}

impl Probes {
    pub fn new(ctx: &EngineContext, mapping: Arc<Mapping>) -> Probes {
        let compiled = mapping
            .stds
            .iter()
            .map(|s| CompiledPattern::new(&s.source))
            .collect();
        let stream_plans = mapping
            .stds
            .iter()
            .map(|s| StreamPattern::compile(&s.source).expect("benchmark mappings stream"))
            .collect();
        let index = ctx.stream_index(&mapping.source_dtd);
        Probes {
            mapping,
            compiled,
            stream_plans,
            index,
        }
    }
}

/// Counts one chase op leaves behind for the per-layer report.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaseCounts {
    /// The op's own time: from the document bytes to the output bytes,
    /// without the probes and without dropping the trees.
    pub op_ms: f64,
    pub source_nodes: usize,
    pub solution_nodes: usize,
    pub events: u64,
    pub tuples: u64,
}

/// `xmlmap chase`: `xml::parse` → `Dtd::normalize_attrs` →
/// `EngineContext::canonical_solution` → `reduce_solution` →
/// `xml::to_string`. Returns the output bytes; with the tracer on, also
/// runs the tokenize, conformance and match probes.
pub fn chase_op(
    t: &mut Tracer,
    ctx: &EngineContext,
    p: &Probes,
    doc: &str,
) -> Result<(String, ChaseCounts), String> {
    let m = &*p.mapping;
    let start = Instant::now();
    let (out, _) = t.op("op.chase", |t| {
        let (tree, parse_span) = t.span("trees.xml.parse", |_| xml::parse(doc));
        let mut tree = tree.map_err(|e| e.to_string())?;
        t.span("dtd.conformance.normalize", |_| {
            let _ = m.source_dtd.normalize_attrs(&mut tree);
        });
        let (sol, chase_span) = t.span("core.chase.canonical_solution", |_| {
            ctx.canonical_solution(m, &tree)
        });
        let sol = sol.map_err(|e| format!("no solution: {e}"))?;
        let (reduced, _) = t.span("core.exchange.reduce", |_| reduce_solution(m, &sol));
        let (bytes, _) = t.span("trees.xml.to_string", |_| xml::to_string(&reduced));
        Ok::<_, String>((bytes, tree, sol, parse_span, chase_span))
    });
    let op_ms = start.elapsed().as_secs_f64() * 1e3;
    let (bytes, tree, sol, parse_span, chase_span) = out?;
    let mut counts = ChaseCounts {
        op_ms,
        source_nodes: tree.size(),
        solution_nodes: sol.size(),
        ..ChaseCounts::default()
    };
    if t.enabled() {
        counts.events = t
            .probe(parse_span, "trees.sax.tokenize", |_| {
                tokenize(doc.as_bytes())
            })
            .0;
        t.probe(chase_span, "dtd.conformance.check", |_| {
            m.source_dtd.conforms(&tree)
        });
        counts.tuples = t
            .probe(chase_span, "patterns.compiled.match", |_| {
                let count =
                    |cp: &CompiledPattern| Matcher::new(&tree, cp).all_match_tuples().len() as u64;
                if p.compiled.len() > 1 && tree.size() >= PAR_NODE_THRESHOLD {
                    xmlmap_par::par_map(&p.compiled, count).into_iter().sum()
                } else {
                    p.compiled.iter().map(count).sum()
                }
            })
            .0;
    }
    Ok((bytes, counts))
}

/// Pulls every SAX event; returns the count.
pub fn tokenize(bytes: &[u8]) -> u64 {
    let mut reader = SaxReader::new(bytes);
    let mut n = 0;
    while let Ok(Some(_)) = reader.next_event() {
        n += 1;
    }
    n
}

/// Counts one stream op leaves behind for the per-layer report.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamCounts {
    /// The op's own time, without the probes.
    pub op_ms: f64,
    pub firings: u64,
    pub peak_live_valuations: u64,
    pub pattern_state_bytes: u64,
    pub peak_depth: usize,
    pub peak_live_bytes: u64,
}

/// `xmlmap stream --chase`: `EngineContext::chase_stream` over the bytes,
/// then `reduce_solution` and `xml::to_string`. With the tracer on, also
/// runs the tokenize, validate and enumerate probes over the same bytes.
pub fn stream_op(
    t: &mut Tracer,
    ctx: &EngineContext,
    p: &Probes,
    doc: &str,
) -> Result<(String, StreamCounts), String> {
    let m = &*p.mapping;
    let start = Instant::now();
    let (out, _) = t.op("op.stream", |t| {
        let (outcome, span) = t.span("core.stream.chase_stream", |_| {
            ctx.chase_stream(m, doc.as_bytes())
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        if let Some(v) = &outcome.violation {
            return Err(v.clone());
        }
        let counts = StreamCounts {
            op_ms: 0.0,
            firings: outcome.firings,
            peak_live_valuations: outcome.peak_live_valuations,
            pattern_state_bytes: outcome.pattern_state_bytes,
            peak_depth: outcome.peak_depth(),
            peak_live_bytes: outcome.peak_live_bytes(),
        };
        let sol = outcome
            .solution
            .expect("no violation implies a verdict")
            .map_err(|e| format!("no solution: {e}"))?;
        let (reduced, _) = t.span("core.exchange.reduce", |_| reduce_solution(m, &sol));
        let (bytes, _) = t.span("trees.xml.to_string", |_| xml::to_string(&reduced));
        Ok::<_, String>((bytes, counts, span))
    });
    let op_ms = start.elapsed().as_secs_f64() * 1e3;
    let (bytes, mut counts, span) = out?;
    counts.op_ms = op_ms;
    if t.enabled() {
        let events = pretokenize(doc.as_bytes());
        t.probe(span, "trees.sax.tokenize", |_| tokenize(doc.as_bytes()));
        t.probe(span, "dtd.stream.validate", |_| {
            validate_events(&p.index, &events)
        });
        t.probe(span, "patterns.stream.enumerate", |_| {
            enumerate_events(&p.index, &p.stream_plans, &events)
        });
    }
    Ok((bytes, counts))
}

type Event = Option<(Name, Vec<(Name, Value)>)>;

/// SAX events held in memory (`None` = close), so that the validate and
/// enumerate probes time their own layer without the tokenizer.
fn pretokenize(bytes: &[u8]) -> Vec<Event> {
    let mut reader = SaxReader::new(bytes);
    let mut events = Vec::new();
    while let Ok(Some(e)) = reader.next_event() {
        events.push(match e {
            SaxEvent::Open { label, attrs } => Some((label, attrs)),
            SaxEvent::Close { .. } => None,
        });
    }
    events
}

/// The streaming validator (`dtd::stream`) over pre-tokenized events.
fn validate_events(idx: &Arc<DtdIndex>, events: &[Event]) -> bool {
    let mut v = StreamValidator::new(Arc::clone(idx));
    for e in events {
        let ok = match e {
            Some((label, attrs)) => v.open(label, attrs).is_ok(),
            None => v.close().is_ok(),
        };
        if !ok {
            return false;
        }
    }
    v.finish();
    true
}

/// One `StreamEnumerator` per std over pre-tokenized events, with the
/// same attribute canonicalisation `chase_stream` applies.
fn enumerate_events(idx: &DtdIndex, plans: &[StreamPattern], events: &[Event]) -> usize {
    let mut enums: Vec<StreamEnumerator<'_>> = plans.iter().map(StreamEnumerator::new).collect();
    let mut canonical: Vec<(Name, Value)> = Vec::new();
    for e in events {
        match e {
            Some((label, attrs)) => {
                canonical.clear();
                for want in idx.dtd().attrs(label) {
                    if let Some((_, v)) = attrs.iter().find(|(a, _)| a == want) {
                        canonical.push((want.clone(), v.clone()));
                    }
                }
                for en in &mut enums {
                    en.open(label, &canonical);
                }
            }
            None => {
                for en in &mut enums {
                    en.close();
                }
            }
        }
    }
    enums.into_iter().map(|en| en.finish().len()).sum()
}

/// What one storm did.
pub struct StormOutcome {
    /// Per `apply`: latency in ms and whether `DeltaStats.refires` moved.
    pub applies: Vec<(f64, bool)>,
    pub solution_ms: f64,
    /// From the first `apply` to the end of the solution read.
    pub total_s: f64,
    pub replays: u64,
    /// The read's solution serialised, for the from-scratch check.
    pub solution: Result<String, String>,
}

/// A storm of `IncrementalChase::apply` calls, then one
/// `canonical_solution` read.
pub fn storm_op(t: &mut Tracer, session: &mut IncrementalChase, storm: &[Update]) -> StormOutcome {
    let replays_before = session.stats().replays;
    let start = Instant::now();
    let (out, _) = t.op("op.delta_storm", |t| {
        let mut applies = Vec::with_capacity(storm.len());
        for u in storm {
            let refires = session.stats().refires;
            let a = Instant::now();
            let (r, _) = t.span("core.chase.delta.apply", |_| session.apply(u));
            let ms = a.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = r {
                return (applies, Err(e), 0.0);
            }
            applies.push((ms, session.stats().refires > refires));
        }
        let a = Instant::now();
        let (sol, _) = t.span("core.chase.delta.solution", |_| {
            session.canonical_solution()
        });
        let solution_ms = a.elapsed().as_secs_f64() * 1e3;
        (applies, sol.map_err(|e| e.to_string()), solution_ms)
    });
    let total_s = start.elapsed().as_secs_f64();
    let (applies, sol, solution_ms) = out;
    StormOutcome {
        applies,
        solution_ms,
        total_s,
        replays: session.stats().replays - replays_before,
        solution: sol.map(|s| xml::to_string(&s)),
    }
}

/// The from-scratch twin of a storm's read: the compiled chase of the
/// session's current document, serialised.
pub fn rechase(ctx: &EngineContext, m: &Mapping, doc: &Tree) -> Result<String, String> {
    ctx.canonical_solution(m, doc)
        .map(|s| xml::to_string(&s))
        .map_err(|e| e.to_string())
}
