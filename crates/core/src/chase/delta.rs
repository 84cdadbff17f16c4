//! Incremental delta-chase (DESIGN.md §8.9).
//!
//! Production exchange traffic is one long-lived source document absorbing
//! a stream of subtree insertions/deletions with solution and
//! certain-answer reads interleaved. The chase builds the canonical
//! solution from independent per-std firings, so an update only
//! invalidates the firings whose witness valuations touch the edited
//! region — everything else can be kept. [`IncrementalChase`] exploits
//! that in three layers:
//!
//! * **firing index / refire frontier** — each std's compiled source
//!   pattern is summarized into a [`TouchProfile`] (its concrete label
//!   footprint plus wildcard/horizontal flags), inverted into a
//!   label-keyed index. An edit yields the set of source positions it
//!   touched; the labels those positions occupy select exactly the stds
//!   whose plans can reach the region, and only those are re-matched.
//!   For patterns with horizontal operators the region is widened to
//!   every child of the edit point's parent — inserting `c` between
//!   siblings `a, b` breaks `a → b` even though `c` occurs in neither
//!   pattern, so the label-intersection test alone would be unsound;
//! * **epoch-versioned retractable arena** — the union-find of labelled
//!   nulls, the interned constant table and the `(parent, slot)`
//!   slot-cursor arena of the compiled kernel are mirrored in an owned
//!   form whose every mutation is recorded on a trail. Each applied
//!   firing is an epoch delimited by a checkpoint; rewinding to any
//!   epoch restores the exact arena state by LIFO undo (union-find
//!   merges use no path compression here, so representative choice —
//!   and therefore the output's null labels — replays identically);
//! * **prefix-preserving replay** — per-std canonical firing sequences
//!   are maintained for the current document; after an update re-matches
//!   the affected stds, the flattened std-major sequence is compared
//!   against the applied epochs, the arena rewinds to the longest common
//!   prefix, and only the suffix replays. The result is *byte-identical*
//!   to a from-scratch chase of the mutated document: same firing order,
//!   same fresh-null numbering, same error (the first failing firing in
//!   canonical order), same completion sweep.
//!
//! Completion (mandatory-child filling) and the deferred `≠` check are
//! *read-time* operations: [`IncrementalChase::canonical_solution`] runs
//! them on the live arena under a checkpoint and rewinds afterwards, so
//! the persistent state stays pristine across updates.

use super::compiled::{ChaseCache, LabelInfo, PlanOp, StdPlan};
use super::ChaseError;
use crate::exchange::CertainAnswersError;
use crate::stds::Mapping;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use xmlmap_codec::CodecError;
use xmlmap_dtd::Mult;
use xmlmap_patterns::{eval, Matcher, Pattern, Valuation};
use xmlmap_trees::{Name, NodeId, Tree, Value};

// ---------------------------------------------------------------------------
// Touch profiles and the firing index
// ---------------------------------------------------------------------------

/// Static match-region summary of one std's source pattern: which source
/// positions a match valuation of the pattern can possibly occupy.
#[derive(Clone, Debug)]
pub struct TouchProfile {
    /// Concrete labels the pattern tests; `None` when any pattern node is
    /// a wildcard (the pattern can witness nodes of every label).
    pub labels: Option<BTreeSet<Name>>,
    /// Does the pattern use `→` or `→*`? Horizontal patterns observe
    /// sibling adjacency, so their region includes every child of the
    /// edit point's parent.
    pub horizontal: bool,
}

impl TouchProfile {
    /// Summarizes `p`.
    pub fn of(p: &Pattern) -> TouchProfile {
        TouchProfile {
            labels: p.label_footprint(),
            horizontal: p.uses_next_sibling() || p.uses_following_sibling(),
        }
    }

    /// Can an edit whose region carries `labels` create or destroy
    /// matches of this pattern?
    fn touched(&self, labels: &BTreeSet<Name>) -> bool {
        match &self.labels {
            None => true, // wildcard: every position is a witness candidate
            Some(fp) => fp.iter().any(|l| labels.contains(l)),
        }
    }
}

/// Per-mapping compiled artifact for incremental sessions: the chase
/// tables plus one [`TouchProfile`] per std. Cached by [`crate::engine::
/// EngineContext::delta_plan`] under [`crate::store::Family::DeltaChase`];
/// the persisted payload is the chase tables, profiles are recomputed
/// from the canonical source-pattern texts on decode.
pub struct DeltaPlan {
    pub(crate) chase: ChaseCache,
    pub(crate) profiles: Vec<TouchProfile>,
}

impl DeltaPlan {
    /// Compiles the delta tables for `m`.
    pub fn new(m: &Mapping) -> DeltaPlan {
        let chase = ChaseCache::new(m);
        let profiles = m.stds.iter().map(|s| TouchProfile::of(&s.source)).collect();
        DeltaPlan { chase, profiles }
    }

    /// Serializes the plan (the chase tables; profiles travel implicitly).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.chase.to_bytes()
    }

    /// Inverse of [`DeltaPlan::to_bytes`]: decodes the chase tables and
    /// recomputes each std's profile from its canonical pattern text.
    pub fn from_bytes(bytes: &[u8]) -> Result<DeltaPlan, CodecError> {
        let chase = ChaseCache::from_bytes(bytes)?;
        let profiles = (0..chase.std_count())
            .map(|i| {
                let p = xmlmap_patterns::parse(chase.source_text(i))
                    .map_err(|_| CodecError::Malformed("stored pattern text"))?;
                Ok(TouchProfile::of(&p))
            })
            .collect::<Result<Vec<_>, CodecError>>()?;
        Ok(DeltaPlan { chase, profiles })
    }

    /// Approximate heap footprint for the engine's memory accounting.
    pub fn approx_bytes(&self) -> u64 {
        let profiles: u64 = self
            .profiles
            .iter()
            .map(|p| {
                p.labels.as_ref().map_or(0, |ls| {
                    ls.iter().map(|l| l.as_str().len() as u64 + 24).sum()
                }) + 16
            })
            .sum();
        self.chase.approx_bytes() + profiles
    }
}

// ---------------------------------------------------------------------------
// Updates
// ---------------------------------------------------------------------------

/// One source-document edit, addressed by child-index paths from the root
/// (`.` in the textual form; `0/2` = third child of the root's first
/// child).
#[derive(Clone, Debug, PartialEq)]
pub enum Update {
    /// Graft a copy of `subtree` under the node at `parent`, at child
    /// position `pos`.
    InsertSubtree {
        /// Path of the parent node.
        parent: Vec<usize>,
        /// Child position for the new subtree (existing children shift).
        pos: usize,
        /// The subtree to insert.
        subtree: Tree,
    },
    /// Detach the subtree rooted at `path` (must not be the root).
    DeleteSubtree {
        /// Path of the subtree root.
        path: Vec<usize>,
    },
    /// Overwrite attribute `attr` of the node at `path` with `value`.
    ReplaceText {
        /// Path of the node.
        path: Vec<usize>,
        /// The attribute name (must exist on the node).
        attr: Name,
        /// The new value.
        value: Value,
    },
}

/// Parses an updatefile: one op per line, `#` comments and blank lines
/// skipped.
///
/// ```text
/// insert <parent-path> <pos> <xml-fragment>
/// delete <path>
/// settext <path> <attr> <value>
/// ```
///
/// Paths are `.` (the root) or slash-separated child indices (`1/0/2`).
/// The value of `settext` is the rest of the line, verbatim.
pub fn parse_updates(input: &str) -> Result<Vec<Update>, String> {
    fn path(s: &str, ln: usize) -> Result<Vec<usize>, String> {
        if s == "." {
            return Ok(Vec::new());
        }
        s.split('/')
            .map(|c| {
                c.parse::<usize>()
                    .map_err(|_| format!("line {ln}: bad path component {c:?}"))
            })
            .collect()
    }
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let ln = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (op, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match op {
            "insert" => {
                let (p, rest) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("line {ln}: insert needs <path> <pos> <xml>"))?;
                let (pos, xml) = rest
                    .trim()
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("line {ln}: insert needs <path> <pos> <xml>"))?;
                let subtree = xmlmap_trees::xml::parse(xml.trim())
                    .map_err(|e| format!("line {ln}: bad fragment: {e}"))?;
                out.push(Update::InsertSubtree {
                    parent: path(p, ln)?,
                    pos: pos
                        .parse()
                        .map_err(|_| format!("line {ln}: bad position {pos:?}"))?,
                    subtree,
                });
            }
            "delete" => out.push(Update::DeleteSubtree {
                path: path(rest, ln)?,
            }),
            "settext" => {
                let (p, rest) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("line {ln}: settext needs <path> <attr> <value>"))?;
                let (attr, value) = rest
                    .trim()
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("line {ln}: settext needs <path> <attr> <value>"))?;
                out.push(Update::ReplaceText {
                    path: path(p, ln)?,
                    attr: Name::new(attr),
                    value: Value::str(value.trim()),
                });
            }
            other => return Err(format!("line {ln}: unknown update op {other:?}")),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The retractable arena
// ---------------------------------------------------------------------------

/// A chase-time value: an interned constant or a union-find null element.
/// Owned twin of the kernel's borrowing `Val` — the delta session outlives
/// any one version of the source document.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Val {
    Const(u32),
    Null(u32),
}

/// One undoable arena mutation. Every state change an epoch makes is one
/// of these; popping them in reverse restores the pre-epoch state exactly.
enum TrailOp {
    /// A null was created: pop the union-find columns.
    NewNull,
    /// A constant was interned: pop the table and its index entry.
    NewConst,
    /// Root `lo` was merged under another root: re-root it.
    SetParent(u32),
    /// Root `hi`'s rank was bumped by the merge.
    BumpRank(u32),
    /// Root `node`'s bound constant was overwritten (held `old`).
    SetBound { node: u32, old: Option<u32> },
    /// An arena node was created: pop it.
    NewNode,
    /// A child id was pushed into `kids[slot]` of arena node `node`.
    PushKid { node: u32, slot: u32 },
}

/// One node of the retractable slot-cursor arena.
struct DNode {
    label: u32,
    attrs: Vec<Val>,
    kids: Vec<Vec<u32>>,
}

/// The epoch-versioned union-find + slot-cursor arena. Mirrors the
/// kernel's `Values`/`ANode` construction op for op — same interning
/// order, same union-by-rank representative choice (without path
/// compression, which does not affect representatives), same slot-cursor
/// reuse — so a rewind-and-replay over a firing sequence produces a
/// byte-identical materialization to a from-scratch chase of the same
/// sequence.
#[derive(Default)]
struct DeltaArena {
    consts: Vec<Value>,
    intern: HashMap<Value, u32>,
    parent: Vec<u32>,
    rank: Vec<u8>,
    bound: Vec<Option<u32>>,
    nodes: Vec<DNode>,
    trail: Vec<TrailOp>,
    obligations: Vec<(Val, Val, String)>,
    /// `(trail length, obligation count)` before each applied epoch.
    checkpoints: Vec<(usize, usize)>,
}

impl DeltaArena {
    fn intern(&mut self, v: &Value) -> u32 {
        match self.intern.get(v) {
            Some(&c) => c,
            None => {
                let c = self.consts.len() as u32;
                self.consts.push(v.clone());
                self.intern.insert(v.clone(), c);
                self.trail.push(TrailOp::NewConst);
                c
            }
        }
    }

    fn fresh_null(&mut self) -> Val {
        let n = self.parent.len() as u32;
        self.parent.push(n);
        self.rank.push(0);
        self.bound.push(None);
        self.trail.push(TrailOp::NewNull);
        Val::Null(n)
    }

    /// Representative lookup without path compression: compression only
    /// rewires parent pointers (it never changes which root wins a merge),
    /// and skipping it keeps `find` read-only — nothing to trail.
    fn find(&self, mut n: u32) -> u32 {
        while self.parent[n as usize] != n {
            n = self.parent[n as usize];
        }
        n
    }

    /// Unifies two values; `false` on constant/constant conflict. Same
    /// merge policy as the kernel's `Values::unify`.
    fn unify(&mut self, a: Val, b: Val) -> bool {
        match (a, b) {
            (Val::Const(x), Val::Const(y)) => x == y,
            (Val::Null(n), Val::Const(c)) | (Val::Const(c), Val::Null(n)) => {
                let r = self.find(n);
                match self.bound[r as usize] {
                    Some(c2) => c2 == c,
                    None => {
                        self.trail.push(TrailOp::SetBound { node: r, old: None });
                        self.bound[r as usize] = Some(c);
                        true
                    }
                }
            }
            (Val::Null(x), Val::Null(y)) => {
                let (rx, ry) = (self.find(x), self.find(y));
                if rx == ry {
                    return true;
                }
                match (self.bound[rx as usize], self.bound[ry as usize]) {
                    (Some(a), Some(b)) if a != b => false,
                    (bx, by) => {
                        let joint = bx.or(by);
                        let (hi, lo) = if self.rank[rx as usize] >= self.rank[ry as usize] {
                            (rx, ry)
                        } else {
                            (ry, rx)
                        };
                        self.trail.push(TrailOp::SetParent(lo));
                        self.parent[lo as usize] = hi;
                        if self.rank[hi as usize] == self.rank[lo as usize] {
                            self.trail.push(TrailOp::BumpRank(hi));
                            self.rank[hi as usize] += 1;
                        }
                        self.trail.push(TrailOp::SetBound {
                            node: hi,
                            old: self.bound[hi as usize],
                        });
                        self.bound[hi as usize] = joint;
                        true
                    }
                }
            }
        }
    }

    /// Are the two values forced equal by the current substitution?
    fn same(&self, a: Val, b: Val) -> bool {
        let canon = |v: Val| match v {
            Val::Const(c) => Val::Const(c),
            Val::Null(n) => {
                let r = self.find(n);
                match self.bound[r as usize] {
                    Some(c) => Val::Const(c),
                    None => Val::Null(r),
                }
            }
        };
        canon(a) == canon(b)
    }

    /// The output value: the bound constant, or a null labelled by the
    /// class representative.
    fn resolve(&self, v: Val) -> Value {
        match v {
            Val::Const(c) => self.consts[c as usize].clone(),
            Val::Null(n) => {
                let r = self.find(n);
                match self.bound[r as usize] {
                    Some(c) => self.consts[c as usize].clone(),
                    None => Value::Null(r as u64),
                }
            }
        }
    }

    fn create_node(&mut self, labels: &[LabelInfo], label: u32) -> u32 {
        let info = &labels[label as usize];
        let attrs = (0..info.attrs.len()).map(|_| self.fresh_null()).collect();
        self.nodes.push(DNode {
            label,
            attrs,
            kids: vec![Vec::new(); info.slots.len()],
        });
        self.trail.push(TrailOp::NewNode);
        (self.nodes.len() - 1) as u32
    }

    fn push_kid(&mut self, node: u32, slot: u32, kid: u32) {
        self.nodes[node as usize].kids[slot as usize].push(kid);
        self.trail.push(TrailOp::PushKid { node, slot });
    }

    /// LIFO undo back to trail length `mark`.
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail length checked") {
                TrailOp::NewNull => {
                    self.parent.pop();
                    self.rank.pop();
                    self.bound.pop();
                }
                TrailOp::NewConst => {
                    let v = self.consts.pop().expect("interned constant on trail");
                    self.intern.remove(&v);
                }
                TrailOp::SetParent(lo) => self.parent[lo as usize] = lo,
                TrailOp::BumpRank(hi) => self.rank[hi as usize] -= 1,
                TrailOp::SetBound { node, old } => self.bound[node as usize] = old,
                TrailOp::NewNode => {
                    self.nodes.pop();
                }
                TrailOp::PushKid { node, slot } => {
                    self.nodes[node as usize].kids[slot as usize].pop();
                }
            }
        }
    }

    /// Rewinds to the state before epoch `epoch` (0-based; `rewind_to(k)`
    /// leaves exactly `k` epochs applied).
    fn rewind_to(&mut self, epoch: usize) {
        if epoch >= self.checkpoints.len() {
            return;
        }
        let (trail_mark, obligations_mark) = self.checkpoints[epoch];
        self.undo_to(trail_mark);
        self.obligations.truncate(obligations_mark);
        self.checkpoints.truncate(epoch);
    }

    /// Applies one firing as a new epoch; on failure the partial epoch is
    /// fully undone and the error returned. Mirrors the per-tuple body of
    /// the kernel's `chase_firings` exactly.
    fn apply_firing(
        &mut self,
        cache: &ChaseCache,
        si: usize,
        tuple: &[Value],
    ) -> Result<(), ChaseError> {
        let mark = (self.trail.len(), self.obligations.len());
        self.checkpoints.push(mark);
        match self.try_firing(cache, si, tuple) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.checkpoints.pop();
                self.undo_to(mark.0);
                self.obligations.truncate(mark.1);
                Err(e)
            }
        }
    }

    fn try_firing(
        &mut self,
        cache: &ChaseCache,
        si: usize,
        tuple: &[Value],
    ) -> Result<(), ChaseError> {
        let plan: &StdPlan = &cache.plans[si];
        let mut class_vals: Vec<Option<Val>> = vec![None; plan.class_count as usize];
        for &(class, src) in &plan.tvar_classes {
            if let Some(sid) = src {
                let v = &tuple[sid as usize];
                match class_vals[class as usize] {
                    Some(Val::Const(c)) if self.consts[c as usize] != *v => {
                        return Err(ChaseError::EqualityUnsatisfiable(format!(
                            "std #{si}: α′₌ equates {} and {}",
                            self.consts[c as usize], v
                        )));
                    }
                    Some(_) => {}
                    None => {
                        let c = self.intern(v);
                        class_vals[class as usize] = Some(Val::Const(c));
                    }
                }
            }
        }
        for &(class, _) in &plan.tvar_classes {
            if class_vals[class as usize].is_none() {
                class_vals[class as usize] = Some(self.fresh_null());
            }
        }
        for (l, r, what) in &plan.neqs {
            for c in [*l, *r] {
                if class_vals[c as usize].is_none() {
                    class_vals[c as usize] = Some(self.fresh_null());
                }
            }
            self.obligations.push((
                class_vals[*l as usize].expect("filled above"),
                class_vals[*r as usize].expect("filled above"),
                what.clone(),
            ));
        }
        if let Some(e) = &plan.pre_fail {
            return Err(e.clone());
        }
        let mut node_map: Vec<u32> = vec![0; plan.plan_nodes as usize];
        for op in &plan.ops {
            match op {
                PlanOp::Fail(e) => return Err(e.clone()),
                PlanOp::Child {
                    parent,
                    node,
                    label,
                    slot,
                    repeatable,
                } => {
                    let p = node_map[*parent as usize];
                    let id = match self.nodes[p as usize].kids[*slot as usize].first() {
                        Some(&id) if !repeatable => id,
                        _ => {
                            let id = self.create_node(&cache.labels, *label);
                            self.push_kid(p, *slot, id);
                            id
                        }
                    };
                    node_map[*node as usize] = id;
                }
                PlanOp::Unify { node, classes } => {
                    let a = node_map[*node as usize] as usize;
                    for (k, &cls) in classes.iter().enumerate() {
                        let nv = class_vals[cls as usize].expect("all classes filled");
                        let old = self.nodes[a].attrs[k];
                        if !self.unify(old, nv) {
                            let info = &cache.labels[self.nodes[a].label as usize];
                            return Err(ChaseError::ValueConflict(format!(
                                "attribute {} of {}: {} vs {}",
                                info.attrs[k],
                                info.name,
                                self.resolve(old),
                                self.resolve(nv)
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Read-time completion + `≠` check + materialization, rewound before
    /// returning so the persistent state is untouched.
    fn materialize(&mut self, cache: &ChaseCache) -> Result<Tree, ChaseError> {
        let mark = self.trail.len();
        let mut i = 0;
        while i < self.nodes.len() {
            let info = &cache.labels[self.nodes[i].label as usize];
            for slot in 0..info.slots.len() {
                let (clabel, mult) = info.slots[slot];
                if self.nodes[i].kids[slot].is_empty() && matches!(mult, Mult::One | Mult::Plus) {
                    let id = self.create_node(&cache.labels, clabel);
                    self.push_kid(i as u32, slot as u32, id);
                }
            }
            i += 1;
        }
        for k in 0..self.obligations.len() {
            let (a, b, _) = self.obligations[k];
            if self.same(a, b) {
                let what = self.obligations[k].2.clone();
                self.undo_to(mark);
                return Err(ChaseError::InequalityViolated(what));
            }
        }
        fn attrs_of(arena: &DeltaArena, labels: &[LabelInfo], node: usize) -> Vec<(Name, Value)> {
            let info = &labels[arena.nodes[node].label as usize];
            info.attrs
                .iter()
                .cloned()
                .zip(arena.nodes[node].attrs.iter().map(|&v| arena.resolve(v)))
                .collect()
        }
        fn emit(arena: &DeltaArena, labels: &[LabelInfo], node: usize, out: &mut Tree, at: NodeId) {
            for slot_kids in &arena.nodes[node].kids {
                for &kid in slot_kids {
                    let kid = kid as usize;
                    let attrs = attrs_of(arena, labels, kid);
                    let id = out.add_child(
                        at,
                        labels[arena.nodes[kid].label as usize].name.clone(),
                        attrs,
                    );
                    emit(arena, labels, kid, out, id);
                }
            }
        }
        let mut tree = Tree::new(cache.labels[cache.root as usize].name.clone());
        tree.set_attrs(Tree::ROOT, attrs_of(self, &cache.labels, 0));
        emit(self, &cache.labels, 0, &mut tree, Tree::ROOT);
        self.undo_to(mark);
        Ok(tree)
    }
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// Running totals of one session, surfaced through the engine stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Updates applied.
    pub updates: u64,
    /// Std re-enumerations the updates forced (the refire frontier).
    pub refires: u64,
    /// Stds an update's region analysis proved unaffected.
    pub skips: u64,
    /// Epochs replayed after rewinds (firings re-applied to the arena).
    pub replays: u64,
}

/// A long-lived incremental chase session over one mapping and one
/// mutable source document.
///
/// After every update, [`IncrementalChase::canonical_solution`] and
/// [`IncrementalChase::certain_answers`] agree with a from-scratch
/// [`super::canonical_solution`] of the mutated document — byte-identical
/// trees and identical [`ChaseError`] verdicts, not merely isomorphic
/// ones (pinned by `tests/delta_equiv.rs`).
pub struct IncrementalChase {
    mapping: Mapping,
    plan: Arc<DeltaPlan>,
    doc: Tree,
    /// Per-std canonical firing sequences for the current document.
    firings: Vec<Vec<Box<[Value]>>>,
    /// The applied flattened (std-major) sequence: epoch `k` of the arena
    /// holds firing `seq[k]`.
    seq: Vec<(u32, Box<[Value]>)>,
    /// How many of `seq` are applied; `< seq.len()` only when `error` is
    /// set (the failing firing and everything after it are not applied).
    applied: usize,
    error: Option<ChaseError>,
    arena: DeltaArena,
    /// Source nodes currently violating the source DTD (label, attribute
    /// or children-word violations); the document conforms iff empty.
    violations: BTreeSet<NodeId>,
    stats: DeltaStats,
}

impl IncrementalChase {
    /// Opens a session, compiling a fresh [`DeltaPlan`]. The initial
    /// chase state is built by matching every std once.
    pub fn new(m: &Mapping, doc: Tree) -> IncrementalChase {
        IncrementalChase::with_plan(m.clone(), doc, Arc::new(DeltaPlan::new(m)))
    }

    /// Opens a session over a shared, possibly disk-loaded plan.
    pub fn with_plan(mapping: Mapping, doc: Tree, plan: Arc<DeltaPlan>) -> IncrementalChase {
        let mut arena = DeltaArena::default();
        if plan.chase.fragment_error().is_none() && !plan.chase.labels.is_empty() {
            arena.create_node(&plan.chase.labels, plan.chase.root);
        }
        let std_count = plan.chase.std_count();
        let mut s = IncrementalChase {
            mapping,
            plan,
            doc,
            firings: vec![Vec::new(); std_count],
            seq: Vec::new(),
            applied: 0,
            error: None,
            arena,
            violations: BTreeSet::new(),
            stats: DeltaStats::default(),
        };
        for n in s.doc.nodes().collect::<Vec<_>>() {
            if !s.mapping.source_dtd.node_conforms(&s.doc, n) {
                s.violations.insert(n);
            }
        }
        let all: Vec<usize> = (0..std_count).collect();
        s.refire(&all);
        s
    }

    /// The current (mutated) source document.
    pub fn doc(&self) -> &Tree {
        &self.doc
    }

    /// The mapping this session chases under.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Running session totals.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Does the current document conform to the source DTD?
    pub fn source_conforms(&self) -> bool {
        self.violations.is_empty()
    }

    /// Resolves a child-index path (empty = the root).
    pub fn resolve_path(&self, path: &[usize]) -> Result<NodeId, String> {
        let mut n = Tree::ROOT;
        for (depth, &i) in path.iter().enumerate() {
            n = *self.doc.children(n).get(i).ok_or_else(|| {
                format!(
                    "path {:?}: no child {} at depth {}",
                    path.iter()
                        .map(usize::to_string)
                        .collect::<Vec<_>>()
                        .join("/"),
                    i,
                    depth
                )
            })?;
        }
        Ok(n)
    }

    /// Applies one path-addressed [`Update`].
    pub fn apply(&mut self, u: &Update) -> Result<(), String> {
        match u {
            Update::InsertSubtree {
                parent,
                pos,
                subtree,
            } => {
                let p = self.resolve_path(parent)?;
                self.insert_subtree(p, *pos, subtree)
            }
            Update::DeleteSubtree { path } => {
                let n = self.resolve_path(path)?;
                self.delete_subtree(n)
            }
            Update::ReplaceText { path, attr, value } => {
                let n = self.resolve_path(path)?;
                self.replace_text(n, attr.as_str(), value.clone())
            }
        }
    }

    /// Applies a whole update script, stopping at the first structurally
    /// invalid op (bad path, bad position, unknown attribute). Returns
    /// the number of ops applied.
    pub fn apply_all(&mut self, updates: &[Update]) -> Result<usize, String> {
        for (i, u) in updates.iter().enumerate() {
            self.apply(u)
                .map_err(|e| format!("update #{}: {e}", i + 1))?;
        }
        Ok(updates.len())
    }

    /// Grafts a copy of `sub` under `parent` at child position `pos` and
    /// incrementally re-chases.
    pub fn insert_subtree(&mut self, parent: NodeId, pos: usize, sub: &Tree) -> Result<(), String> {
        if pos > self.doc.children(parent).len() {
            return Err(format!(
                "insert position {pos} out of {} children",
                self.doc.children(parent).len()
            ));
        }
        let mut sub = sub.clone();
        self.normalize_fragment(&mut sub);
        let new_root = self.doc.graft_at(parent, pos, &sub);
        let mut region: BTreeSet<Name> = BTreeSet::new();
        for n in self.doc.descendants_or_self(new_root).collect::<Vec<_>>() {
            region.insert(self.doc.label(n).clone());
            if !self.mapping.source_dtd.node_conforms(&self.doc, n) {
                self.violations.insert(n);
            }
        }
        self.revalidate(parent);
        self.after_edit(region, parent);
        Ok(())
    }

    /// Detaches the subtree rooted at `n` and incrementally re-chases.
    pub fn delete_subtree(&mut self, n: NodeId) -> Result<(), String> {
        let Some(parent) = self.doc.parent(n) else {
            return Err("cannot delete the document root".into());
        };
        let mut region: BTreeSet<Name> = BTreeSet::new();
        for d in self.doc.descendants_or_self(n).collect::<Vec<_>>() {
            region.insert(self.doc.label(d).clone());
            self.violations.remove(&d);
        }
        self.doc.detach(n);
        self.revalidate(parent);
        self.after_edit(region, parent);
        Ok(())
    }

    /// Overwrites one attribute value and incrementally re-chases.
    pub fn replace_text(&mut self, n: NodeId, attr: &str, value: Value) -> Result<(), String> {
        if self.doc.attr(n, attr).is_none() {
            return Err(format!(
                "node has no attribute {attr:?} (label {})",
                self.doc.label(n)
            ));
        }
        self.doc.set_attr(n, attr, value);
        let region: BTreeSet<Name> = [self.doc.label(n).clone()].into();
        // Attribute names and children are untouched, so conformance of
        // `n` (and of everything else) cannot change.
        let parent = self.doc.parent(n).unwrap_or(Tree::ROOT);
        self.after_edit(region, parent);
        Ok(())
    }

    /// The canonical solution of the current document — or why none
    /// exists. Identical (bytes and verdict) to a from-scratch chase.
    pub fn canonical_solution(&mut self) -> Result<Tree, ChaseError> {
        if !self.violations.is_empty() {
            return Err(ChaseError::SourceNotConforming);
        }
        if let Some(e) = self.plan.chase.fragment_error() {
            return Err(e.clone());
        }
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        self.arena.materialize(&self.plan.chase)
    }

    /// Certain answers of a downward `query` over all solutions of the
    /// current document: the null-free matches on the canonical solution.
    pub fn certain_answers(
        &mut self,
        query: &Pattern,
    ) -> Result<Vec<Valuation>, CertainAnswersError> {
        if query.uses_next_sibling() || query.uses_following_sibling() {
            return Err(CertainAnswersError::OrderedQuery);
        }
        let canonical = self
            .canonical_solution()
            .map_err(CertainAnswersError::NoSolution)?;
        Ok(eval::all_matches(&canonical, query)
            .into_iter()
            .filter(|v| v.values().all(|x| x.is_constant()))
            .collect())
    }

    // ---- internals -----------------------------------------------------

    /// Re-checks one node's DTD conformance and updates the violation set.
    fn revalidate(&mut self, n: NodeId) {
        if self.mapping.source_dtd.node_conforms(&self.doc, n) {
            self.violations.remove(&n);
        } else {
            self.violations.insert(n);
        }
    }

    /// Best-effort canonicalisation of an inserted fragment: reorders
    /// attributes into DTD order wherever the node's label is known and
    /// its attribute name-set matches (so an in-memory insert equals the
    /// parse-then-`normalize_attrs` of the same fragment). Nodes that
    /// would fail normalization are left as-is — they surface as
    /// conformance violations, exactly like the re-parsed document would.
    fn normalize_fragment(&self, sub: &mut Tree) {
        for n in sub.nodes().collect::<Vec<_>>() {
            self.mapping.source_dtd.normalize_node(sub, n);
        }
    }

    /// The refire frontier: selects the stds whose plans can reach the
    /// edited region, re-enumerates exactly those, and resynchronises the
    /// arena by prefix-preserving replay.
    fn after_edit(&mut self, region: BTreeSet<Name>, edit_parent: NodeId) {
        self.stats.updates += 1;
        // Horizontal patterns additionally observe sibling adjacency at
        // the edit point, so their region includes every child label of
        // the edit parent (computed lazily — only if some std needs it).
        let mut horizontal_region: Option<BTreeSet<Name>> = None;
        let mut affected: Vec<usize> = Vec::new();
        for (si, profile) in self.plan.profiles.iter().enumerate() {
            let touched = if profile.horizontal {
                let wide = horizontal_region.get_or_insert_with(|| {
                    let mut wide = region.clone();
                    wide.extend(
                        self.doc
                            .children(edit_parent)
                            .iter()
                            .map(|&c| self.doc.label(c).clone()),
                    );
                    wide.insert(self.doc.label(edit_parent).clone());
                    wide
                });
                profile.touched(wide)
            } else {
                profile.touched(&region)
            };
            if touched {
                affected.push(si);
            } else {
                self.stats.skips += 1;
            }
        }
        if !affected.is_empty() {
            self.refire(&affected);
        }
    }

    /// Re-enumerates the given stds against the current document and
    /// replays the arena from the longest unchanged firing prefix.
    fn refire(&mut self, stds: &[usize]) {
        for &si in stds {
            let plan = &self.plan.chase.plans[si];
            let matcher = Matcher::new(&self.doc, &plan.source);
            let tuples: Vec<Box<[Value]>> = matcher
                .all_match_tuples()
                .into_iter()
                .map(|t| t.into_iter().cloned().collect())
                .collect();
            self.firings[si] = self.plan.chase.canonical_firings(si, tuples);
            self.stats.refires += 1;
        }
        // Flatten std-major — the kernel's instantiation order.
        let new_seq: Vec<(u32, Box<[Value]>)> = self
            .firings
            .iter()
            .enumerate()
            .flat_map(|(si, fs)| fs.iter().map(move |t| (si as u32, t.clone())))
            .collect();
        // Longest common prefix with the *applied* epochs.
        let mut lcp = 0;
        while lcp < self.applied && lcp < new_seq.len() && self.seq[lcp] == new_seq[lcp] {
            lcp += 1;
        }
        self.arena.rewind_to(lcp);
        self.seq = new_seq;
        self.applied = lcp;
        self.error = None;
        while self.applied < self.seq.len() {
            let (si, tuple) = &self.seq[self.applied];
            let si = *si as usize;
            let tuple = tuple.clone();
            match self.arena.apply_firing(&self.plan.chase, si, &tuple) {
                Ok(()) => {
                    self.applied += 1;
                    self.stats.replays += 1;
                }
                Err(e) => {
                    self.error = Some(e);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::canonical_solution;
    use crate::stds::Std;
    use xmlmap_dtd::Dtd;
    use xmlmap_trees::tree;

    fn dtd(s: &str) -> Dtd {
        xmlmap_dtd::parse(s).unwrap()
    }

    fn mapping(ds: &str, dt: &str, stds: &[&str]) -> Mapping {
        Mapping::new(
            dtd(ds),
            dtd(dt),
            stds.iter().map(|s| Std::parse(s).unwrap()).collect(),
        )
    }

    /// The session must agree with a from-scratch chase of its current
    /// document — byte-identically, error verdicts included.
    fn assert_in_sync(s: &mut IncrementalChase) {
        let fresh = canonical_solution(&s.mapping, s.doc());
        let inc = s.canonical_solution();
        match (&inc, &fresh) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "delta solution diverged"),
            (Err(a), Err(b)) => assert_eq!(a, b, "delta error verdict diverged"),
            _ => panic!("delta {inc:?} vs fresh {fresh:?}"),
        }
    }

    #[test]
    fn inserts_deletes_and_text_edits_track_the_full_chase() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let doc = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        let mut s = IncrementalChase::new(&m, doc);
        assert_in_sync(&mut s);

        s.insert_subtree(Tree::ROOT, 1, &tree!("a"("v" = "9")))
            .unwrap();
        assert_in_sync(&mut s);
        assert_eq!(
            s.canonical_solution().unwrap().children(Tree::ROOT).len(),
            3
        );

        let second = s.doc().children(Tree::ROOT)[1];
        s.delete_subtree(second).unwrap();
        assert_in_sync(&mut s);

        let first = s.doc().children(Tree::ROOT)[0];
        s.replace_text(first, "v", Value::str("7")).unwrap();
        assert_in_sync(&mut s);
    }

    #[test]
    fn conformance_verdicts_follow_updates() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let mut s = IncrementalChase::new(&m, tree!("r"["a"("v" = "1")]));
        // A foreign label breaks conformance...
        s.insert_subtree(Tree::ROOT, 0, &tree!("zzz")).unwrap();
        assert!(!s.source_conforms());
        assert_in_sync(&mut s);
        // ...and deleting it restores the old state exactly.
        let bad = s.doc().children(Tree::ROOT)[0];
        s.delete_subtree(bad).unwrap();
        assert!(s.source_conforms());
        assert_in_sync(&mut s);
    }

    #[test]
    fn retracting_a_unification_splits_slot_cursors() {
        // Two stds funnel values into the same non-repeatable b: deleting
        // one source record must retract its unification.
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let doc = tree!("r" [ "a"("v" = "1"), "a"("v" = "1") ]);
        let mut s = IncrementalChase::new(&m, doc);
        assert_in_sync(&mut s);
        // A conflicting value: the chase must now fail...
        s.insert_subtree(Tree::ROOT, 2, &tree!("a"("v" = "2")))
            .unwrap();
        assert!(matches!(
            s.canonical_solution(),
            Err(ChaseError::ValueConflict(_))
        ));
        assert_in_sync(&mut s);
        // ...and deleting the conflicting record heals the session.
        let third = s.doc().children(Tree::ROOT)[2];
        s.delete_subtree(third).unwrap();
        assert_in_sync(&mut s);
        assert!(s.canonical_solution().is_ok());
    }

    #[test]
    fn untouched_stds_are_skipped() {
        let m = mapping(
            "root r\nr -> a*, c*\na @ v\nc @ w",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let doc = tree!("r" [ "a"("v" = "1"), "c"("w" = "9") ]);
        let mut s = IncrementalChase::new(&m, doc);
        let before = s.stats();
        // Editing a c record cannot touch the a-pattern.
        let c = s.doc().children(Tree::ROOT)[1];
        s.replace_text(c, "w", Value::str("8")).unwrap();
        let after = s.stats();
        assert_eq!(after.skips, before.skips + 1);
        assert_eq!(after.refires, before.refires);
        assert_in_sync(&mut s);
    }

    #[test]
    fn update_script_round_trips() {
        let script = "\
# storm
insert . 0 <a v=\"5\"/>
settext 0 v 6
delete 0
";
        let ups = parse_updates(script).unwrap();
        assert_eq!(ups.len(), 3);
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let mut s = IncrementalChase::new(&m, tree!("r"["a"("v" = "1")]));
        assert_eq!(s.apply_all(&ups).unwrap(), 3);
        assert_in_sync(&mut s);
        assert!(parse_updates("bogus . 0").is_err());
        assert!(parse_updates("insert x 0 <a/>").is_err());
        assert!(s.apply(&Update::DeleteSubtree { path: vec![7] }).is_err());
    }

    #[test]
    fn plan_round_trips_through_bytes() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let plan = DeltaPlan::new(&m);
        let back = DeltaPlan::from_bytes(&plan.to_bytes()).unwrap();
        assert_eq!(back.profiles.len(), 1);
        assert_eq!(back.profiles[0].labels, plan.profiles[0].labels);
        assert!(back.approx_bytes() > 0);
        let mut s = IncrementalChase::with_plan(m, tree!("r"["a"("v" = "1")]), Arc::new(back));
        assert_in_sync(&mut s);
    }

    #[test]
    fn revalidating_a_wide_root_is_cheap() {
        // Deleting and reinserting an inert pad revalidates the root's
        // whole children word on the dense kernel: a few ns per child, so
        // a pair under a 40 000-child root takes about 1 ms in release
        // (0.45 ms per apply). The cost must stay linear in the children:
        // at most 100x a 1 000-child root (40x is linear, 1 600x
        // quadratic).
        let m = mapping(
            "root r\nr -> a*, pad*\na @ v\npad @ a, b",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        // Reinserted pads list their attributes out of order, so the
        // insert also runs the fragment normalisation.
        let pad = tree!("pad"("b" = "y", "a" = "x"));
        // The document's pads share their names, as a parsed document's
        // do (the SAX reader interns them).
        let names = [Name::new("pad"), Name::new("a"), Name::new("b")];
        let session = |pads: usize| {
            let mut t = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
            for _ in 0..pads {
                let attrs = [(names[1].clone(), "x"), (names[2].clone(), "y")];
                t.add_child(Tree::ROOT, names[0].clone(), attrs);
            }
            IncrementalChase::new(&m, t)
        };
        // Fastest of several delete/reinsert pairs in the middle of the pads.
        let pair_time = |s: &mut IncrementalChase| {
            let mid = s.doc().children(Tree::ROOT).len() / 2;
            (0..15)
                .map(|_| {
                    let started = std::time::Instant::now();
                    let n = s.doc().children(Tree::ROOT)[mid];
                    s.delete_subtree(n).unwrap();
                    s.insert_subtree(Tree::ROOT, mid, &pad).unwrap();
                    started.elapsed()
                })
                .min()
                .unwrap()
        };
        let (mut small, mut wide) = (session(1_000), session(40_000));
        let (mut t_small, mut t_wide) = (pair_time(&mut small), pair_time(&mut wide));
        for _ in 0..2 {
            t_small = t_small.min(pair_time(&mut small));
            t_wide = t_wide.min(pair_time(&mut wide));
        }
        assert!(small.source_conforms() && wide.source_conforms());
        assert_in_sync(&mut small);
        let ratio = t_wide.as_secs_f64() / t_small.as_secs_f64();
        assert!(
            ratio <= 100.0,
            "40x the children cost {ratio:.1}x the time ({t_wide:?} vs {t_small:?})"
        );
    }
}
