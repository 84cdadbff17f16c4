//! Seeded input generation: documents, update storms and the per-workload
//! sizes and time shares.

use rand::prelude::*;
use std::sync::Arc;
use xmlmap_core::{parse_updates, Mapping, Update};

/// Input sizes: `Full` for measurement, `Tiny` for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Padded,
    Dense,
    Deep,
    Service,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Padded,
        Workload::Dense,
        Workload::Deep,
        Workload::Service,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Padded => "padded",
            Workload::Dense => "dense",
            Workload::Deep => "deep",
            Workload::Service => "service",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Shares of the measured seconds given to the stream, chase, delta
    /// and service (daemon plus batch) phases, in that order.
    pub fn shares(self) -> [f64; 4] {
        match self {
            Workload::Padded | Workload::Dense => [0.30, 0.30, 0.22, 0.18],
            Workload::Deep => [0.30, 0.30, 0.15, 0.25],
            Workload::Service => [0.08, 0.08, 0.09, 0.75],
        }
    }
}

/// Shape of one exchange-family document (`xmlmap_gen::write_exchange_xml`).
#[derive(Clone, Copy, Debug)]
pub struct ExShape {
    pub profs: usize,
    pub students: usize,
    pub pads: usize,
}

/// The document family a workload's chase, stream and delta phases use.
/// `small` is the request pool's documents. They share one shape and
/// differ in seeded values only, so that a round's latencies form one
/// cluster per verb and its median and p90 lie inside a cluster, not on
/// a step between sizes.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// Exchange documents (university body plus inert pads).
    Exchange {
        main: ExShape,
        half: ExShape,
        small: [ExShape; 3],
    },
    /// The recursive chain `r -> a?, a -> a?` of the given depths; the
    /// pool holds three chains of depth `small`.
    Chain { depth: usize, small: usize },
}

pub fn family(w: Workload, scale: Scale) -> Family {
    let ex = |profs, students, pads| ExShape {
        profs,
        students,
        pads,
    };
    match (w, scale) {
        (Workload::Padded, Scale::Full) => Family::Exchange {
            main: ex(160, 4, 40_000),
            half: ex(80, 4, 20_000),
            small: [ex(16, 4, 2000); 3],
        },
        (Workload::Dense, Scale::Full) => Family::Exchange {
            main: ex(1000, 4, 200),
            half: ex(500, 4, 100),
            small: [ex(200, 4, 20); 3],
        },
        (Workload::Deep, Scale::Full) => Family::Chain {
            depth: 4000,
            small: 375,
        },
        (Workload::Service, Scale::Full) => Family::Exchange {
            main: ex(40, 3, 900),
            half: ex(20, 3, 450),
            small: [ex(30, 3, 600); 3],
        },
        (Workload::Padded, Scale::Tiny) => Family::Exchange {
            main: ex(8, 2, 300),
            half: ex(4, 2, 150),
            small: [ex(3, 2, 20), ex(4, 2, 30), ex(5, 2, 40)],
        },
        (Workload::Dense, Scale::Tiny) => Family::Exchange {
            main: ex(40, 2, 5),
            half: ex(20, 2, 3),
            small: [ex(5, 2, 2), ex(6, 2, 2), ex(7, 2, 2)],
        },
        (Workload::Deep, Scale::Tiny) => Family::Chain {
            depth: 60,
            small: 20,
        },
        (Workload::Service, Scale::Tiny) => Family::Exchange {
            main: ex(6, 2, 40),
            half: ex(3, 2, 20),
            small: [ex(3, 2, 10), ex(4, 2, 15), ex(5, 2, 20)],
        },
    }
}

/// The exchange mapping (`xmlmap_gen::exchange_mapping`).
pub fn exchange_mapping() -> Arc<Mapping> {
    Arc::new(xmlmap_gen::exchange_mapping())
}

/// The chain mapping: `r//a(x) --> r/b(x)` into `r -> b*`.
pub fn chain_mapping() -> Arc<Mapping> {
    let text = "[source]\nroot r\nr -> a?\na -> a?\na @ v\n\
                [target]\nroot r\nr -> b*\nb @ w\n\
                [stds]\nr//a(x) --> r/b(x)\n";
    Arc::new(Mapping::parse(text).expect("static chain mapping"))
}

/// An exchange document with seeded pad values: the professor body is
/// `write_exchange_xml`'s, byte for byte; pad `i` gets attribute values
/// `a<k>`/`b<k>` with seeded digits `k`.
pub fn exchange_doc(shape: ExShape, rng: &mut StdRng) -> String {
    let mut body = Vec::new();
    xmlmap_gen::write_exchange_xml(shape.profs, shape.students, 0, &mut body)
        .expect("writing to memory");
    let mut doc = String::from_utf8(body).expect("generator writes UTF-8");
    if doc.trim_end() == "<r/>" {
        doc = "<r>\n".to_string();
    } else {
        doc.truncate(doc.len() - "</r>\n".len());
    }
    for _ in 0..shape.pads {
        let (a, b) = (rng.gen_range(0..10u32), rng.gen_range(0..10u32));
        doc.push_str(&format!("  <pad a=\"a{a}\" b=\"b{b}\"/>\n"));
    }
    doc.push_str("</r>\n");
    doc
}

/// A chain of `depth` nested `a` elements with distinct seeded values.
pub fn chain_doc(depth: usize, rng: &mut StdRng) -> String {
    let salt = rng.gen_range(0..1_000_000u32);
    let mut doc = String::with_capacity(depth * 24);
    doc.push_str("<r>");
    for i in 0..depth {
        doc.push_str(&format!("<a v=\"v{salt}_{i}\">"));
    }
    for _ in 0..depth {
        doc.push_str("</a>");
    }
    doc.push_str("</r>\n");
    doc
}

/// One storm unit: a single update or a delete/reinsert pair, as update
/// lines and parsed. Every unit keeps the document conforming and the
/// root's child count unchanged, so units stay valid in any order.
#[derive(Clone)]
pub struct Unit {
    text: String,
    updates: Vec<Update>,
}

impl Unit {
    fn new(text: String) -> Unit {
        let updates = parse_updates(&text).expect("generated update grammar");
        Unit { text, updates }
    }
}

/// Seeded update storms with a fixed mix per block: `block[c]` units of
/// class `c` from `pools[c]`, shuffled within the storm.
pub struct StormGen {
    pools: Vec<Vec<Unit>>,
    cursor: Vec<usize>,
    block: Vec<usize>,
    blocks: usize,
    rng: StdRng,
}

impl StormGen {
    fn new(pools: Vec<Vec<Unit>>, block: Vec<usize>, blocks: usize, seed: u64) -> StormGen {
        StormGen {
            cursor: vec![0; pools.len()],
            pools,
            block,
            blocks,
            rng: StdRng::seed_from_u64(seed ^ 0x5EED),
        }
    }

    fn next_units(&mut self) -> Vec<&Unit> {
        let mut units: Vec<&Unit> = Vec::new();
        for (c, &count) in self.block.iter().enumerate() {
            for _ in 0..count * self.blocks {
                let pool = &self.pools[c];
                units.push(&pool[self.cursor[c] % pool.len()]);
                self.cursor[c] += 1;
            }
        }
        shuffle(&mut units, &mut self.rng);
        units
    }

    pub fn next_storm(&mut self) -> Vec<Update> {
        self.next_units()
            .into_iter()
            .flat_map(|u| u.updates.iter().cloned())
            .collect()
    }

    /// The next storm as an updatefile.
    pub fn next_storm_text(&mut self) -> String {
        self.next_units()
            .into_iter()
            .map(|u| format!("{}\n", u.text))
            .collect()
    }

    pub fn ops_per_storm(&self) -> usize {
        self.block
            .iter()
            .enumerate()
            .map(|(c, &n)| n * self.blocks * self.pools[c][0].updates.len())
            .sum()
    }
}

pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Strata indices in bit-reversed order, so that any run of consecutive
/// picks spreads over the whole range: 0, 8, 4, 12, 2, … for 16.
fn spread_order(strata: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..strata).collect();
    order.sort_by_key(|j| j.reverse_bits());
    order
}

/// Storms over an exchange document, cut from `write_exchange_updates`
/// scripts into units of three classes: pad `settext` (inert), pad
/// delete/reinsert (inert), professor delete/reinsert (refires). A block
/// holds them 7:1:2, the generator's expected mix. A professor edit costs
/// more the earlier the professor (every later firing is replayed), so
/// the professor units are one per position stratum, taken in
/// [`spread_order`]. Every storm then costs about the same whatever the
/// seed.
pub fn exchange_storms(shape: ExShape, blocks: usize, seed: u64) -> StormGen {
    const PROF_STRATA: usize = 16;
    let block = vec![7, 1, 2];
    let strata = PROF_STRATA.min(shape.profs);
    let mut profs: Vec<Option<Unit>> = vec![None; strata];
    let mut pools: Vec<Vec<Unit>> = vec![Vec::new(); 2];
    let mut round = 0u64;
    while profs.iter().any(Option::is_none)
        || pools
            .iter()
            .zip(&block)
            .any(|(p, &n)| p.len() < n * blocks * 4)
    {
        let mut script = Vec::new();
        xmlmap_gen::write_exchange_updates(
            shape.profs,
            shape.students,
            shape.pads,
            400,
            seed.wrapping_add(round),
            &mut script,
        )
        .expect("writing to memory");
        round += 1;
        let text = String::from_utf8(script).expect("generator writes UTF-8");
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .collect();
        let mut i = 0;
        while i < lines.len() {
            if lines[i].starts_with("settext") {
                pools[0].push(Unit::new(lines[i].to_string()));
                i += 1;
                continue;
            }
            let unit = Unit::new(lines[i..i + 2].join("\n"));
            if lines[i + 1].contains("<prof") {
                let p: usize = lines[i]
                    .trim_start_matches("delete ")
                    .parse()
                    .expect("a professor delete names a root child");
                profs[p * strata / shape.profs].get_or_insert(unit);
            } else {
                pools[1].push(unit);
            }
            i += 2;
        }
    }
    let profs = spread_order(strata)
        .into_iter()
        .map(|j| profs[j].take().expect("every stratum filled"))
        .collect();
    pools.push(profs);
    StormGen::new(pools, block, blocks, seed)
}

/// Child-index path of the chain element at `depth` (1-based).
pub fn chain_path(depth: usize) -> String {
    vec!["0"; depth].join("/")
}

/// Storms over a chain document: `settext` of chain elements to fresh
/// values, five per block. Every op refires the one std; the targets are
/// drawn one per depth stratum and taken in [`spread_order`], so that
/// every seed edits the same spread of depths.
pub fn chain_storms(depth: usize, blocks: usize, seed: u64) -> StormGen {
    const STRATA: usize = 64;
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<Unit> = (0..STRATA)
        .map(|k| {
            let lo = 1 + k * depth / STRATA;
            let hi = ((k + 1) * depth / STRATA).max(lo);
            let d = rng.gen_range(lo..hi + 1);
            Unit::new(format!("settext {} v u{seed}_{k}", chain_path(d)))
        })
        .collect();
    let pool = spread_order(STRATA)
        .into_iter()
        .map(|j| pool[j].clone())
        .collect();
    StormGen::new(vec![pool], vec![5], blocks, seed)
}
