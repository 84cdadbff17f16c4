//! Dense production NFAs and the per-DTD index built on them.
//!
//! Every [`Dtd`] interns its alphabet into dense `u32` ids and compiles
//! each production's Glushkov NFA into a symbol-grouped [`DenseNfa`] whose
//! subset states are flat `[u64]` bitmasks — the conformance kernel of
//! [`crate::conformance`], which the tree checks and the streaming
//! validator in [`crate::stream`] run on. [`DtdIndex`] exposes those tables
//! to the type-fixpoint engine downstream and adds the arity table and the
//! label dependency graph it needs.

use std::collections::BTreeMap;
use xmlmap_codec::{CodecError, Decoder, Encoder};
use xmlmap_regex::Nfa;
use xmlmap_trees::{Name, NameTable};

use crate::conformance::Run;
use crate::dtd::Dtd;

/// Reads bit `i` of a flat `[u64]` bitmask.
#[inline]
pub fn get_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Sets bit `i` of a flat `[u64]` bitmask.
#[inline]
pub fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// A production NFA with transitions grouped by (interned) symbol.
///
/// Subset states are `words`-long `[u64]` bitmasks; Glushkov construction
/// guarantees state 0 is the start state and there are no ε-transitions, so
/// `{0}` is the initial subset and stepping is edge-list scatter.
pub struct DenseNfa {
    /// Words in the subset bitmask.
    words: usize,
    /// Accepting-state bitmask.
    accepting: Box<[u64]>,
    /// Sorted label ids having at least one transition, parallel to `edges`.
    syms: Vec<u32>,
    edges: Vec<Vec<(u32, u32)>>,
}

impl DenseNfa {
    pub(crate) fn new(nfa: &Nfa<Name>, labels: &NameTable) -> DenseNfa {
        let n = nfa.accepting.len();
        let words = n.div_ceil(64).max(1);
        let mut accepting = vec![0u64; words];
        for (q, &acc) in nfa.accepting.iter().enumerate() {
            if acc {
                set_bit(&mut accepting, q);
            }
        }
        let mut by: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        for (q, trans) in nfa.transitions.iter().enumerate() {
            for (sym, q2) in trans {
                // Symbols outside the alphabet can never label an
                // achievable pair; drop their edges.
                if let Some(sid) = labels.find(sym.as_str().as_bytes()) {
                    by.entry(sid).or_default().push((q as u32, *q2 as u32));
                }
            }
        }
        let (syms, edges) = by.into_iter().unzip();
        DenseNfa {
            words,
            accepting: accepting.into_boxed_slice(),
            syms,
            edges,
        }
    }

    /// Steps subset `from` on label id `sym` into `to` (both `words`
    /// long); returns whether `to` is non-empty.
    pub(crate) fn step(&self, from: &[u64], sym: u32, to: &mut [u64]) -> bool {
        to.fill(0);
        let mut alive = false;
        for &(q, q2) in self.edges_for(sym).unwrap_or(&[]) {
            if get_bit(from, q as usize) {
                set_bit(to, q2 as usize);
                alive = true;
            }
        }
        alive
    }

    /// Does subset `state` contain an accepting state?
    pub(crate) fn accepts_state(&self, state: &[u64]) -> bool {
        state
            .iter()
            .zip(self.accepting.iter())
            .any(|(s, a)| s & a != 0)
    }

    /// The Glushkov initial subset `{0}` in `state`.
    pub(crate) fn start(&self, state: &mut Vec<u64>) {
        state.clear();
        state.resize(self.words, 0);
        state[0] = 1;
    }

    /// Is the word of label ids accepted? Automata of one word step a
    /// `u64` in registers; wider ones alternate `run`'s two buffers.
    pub(crate) fn accepts(&self, word: impl IntoIterator<Item = u32>, run: &mut Run) -> bool {
        if self.words == 1 {
            let mut state = 1u64;
            for sym in word {
                let mut next = 0u64;
                for &(q, q2) in self.edges_for(sym).unwrap_or(&[]) {
                    next |= (state >> q & 1) << q2;
                }
                if next == 0 {
                    return false;
                }
                state = next;
            }
            return state & self.accepting[0] != 0;
        }
        self.start(&mut run.cur);
        run.next.resize(self.words, 0);
        for sym in word {
            if !self.step(&run.cur, sym, &mut run.next) {
                return false;
            }
            std::mem::swap(&mut run.cur, &mut run.next);
        }
        self.accepts_state(&run.cur)
    }

    /// Words in a subset bitmask for this automaton.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The accepting-state bitmask (`words` words).
    pub fn accepting(&self) -> &[u64] {
        &self.accepting
    }

    /// Sorted label ids with at least one transition.
    pub fn syms(&self) -> &[u32] {
        &self.syms
    }

    /// The `(from, to)` transition list on `sym`, if any.
    pub fn edges_for(&self, sym: u32) -> Option<&[(u32, u32)]> {
        self.syms
            .binary_search(&sym)
            .ok()
            .map(|i| self.edges[i].as_slice())
    }

    /// Does any transition carry `sym`?
    pub fn has_sym(&self, sym: u32) -> bool {
        self.syms.binary_search(&sym).is_ok()
    }

    fn approx_bytes(&self) -> u64 {
        (self.accepting.len() * 8
            + self.syms.capacity() * 4
            + self.edges.iter().map(|e| e.capacity() * 8).sum::<usize>()) as u64
    }
}

/// The per-DTD compiled artifact: interned labels, per-label dense
/// production NFAs, and the label dependency graph. Reusable across
/// pattern sets and engines — callers hold one behind an `Arc`. The labels
/// and NFAs are the DTD's own conformance kernel; the index adds the
/// arity table and the dependency graph.
pub struct DtdIndex {
    dtd: Dtd,
    arities: Vec<usize>,
    /// `dependents[s]` = labels whose production mentions label `s`.
    dependents: Vec<Vec<u32>>,
}

impl DtdIndex {
    /// Indexes `dtd`: takes its interned labels and dense production NFAs
    /// and builds the label dependency graph.
    pub fn new(dtd: &Dtd) -> DtdIndex {
        let k = &dtd.kernel;
        let n = k.labels.len();
        let arities = (0..n as u32).map(|id| k.attrs(id).len()).collect();
        let mut dependents = vec![Vec::new(); n];
        for (lid, nfa) in k.nfas.iter().enumerate() {
            for &s in &nfa.syms {
                dependents[s as usize].push(lid as u32);
            }
        }
        DtdIndex {
            dtd: dtd.clone(),
            arities,
            dependents,
        }
    }

    /// The compiled DTD.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// Interned labels; `labels()[lid]` is the label with id `lid`.
    pub fn labels(&self) -> &[Name] {
        self.dtd.kernel.labels.names()
    }

    /// The interned id of the root element type.
    pub fn root(&self) -> u32 {
        self.dtd.kernel.root
    }

    /// Per-label declared attribute count, indexed by label id.
    pub fn arities(&self) -> &[usize] {
        &self.arities
    }

    /// Per-label dense production NFAs, indexed by label id.
    pub fn nfas(&self) -> &[DenseNfa] {
        &self.dtd.kernel.nfas
    }

    /// Labels whose production mentions label `s`.
    pub fn dependents(&self, s: u32) -> &[u32] {
        &self.dependents[s as usize]
    }

    /// Serializes the index as the DTD's canonical text (its display form
    /// round-trips through the parser); every table is derived from it.
    pub fn encode(&self, e: &mut Encoder) {
        e.str(&self.dtd.to_string());
    }

    /// Inverse of [`DtdIndex::encode`]. The artifact store's checksum
    /// envelope is what guards against corruption.
    pub fn decode(d: &mut Decoder<'_>) -> Result<DtdIndex, CodecError> {
        let dtd = crate::parse(&d.str()?)
            .map_err(|_| CodecError::Malformed("DtdIndex schema text does not parse"))?;
        Ok(DtdIndex::new(&dtd))
    }

    /// Approximate heap footprint in bytes (label strings, arity table,
    /// dense production NFAs, dependency lists).
    pub fn approx_bytes(&self) -> u64 {
        self.labels()
            .iter()
            .map(|l| l.as_str().len() as u64 + 16)
            .sum::<u64>()
            + self.arities.capacity() as u64 * 8
            + self.nfas().iter().map(DenseNfa::approx_bytes).sum::<u64>()
            + self
                .dependents
                .iter()
                .map(|v| v.capacity() as u64 * 4)
                .sum::<u64>()
            + self.dtd.to_string().len() as u64
    }
}
