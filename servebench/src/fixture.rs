//! Seeded workload inputs and their expected answers.
//!
//! Everything here runs before any clock starts. Each request is built
//! once, encoded once, and paired with the answer the service must give,
//! computed in-process through the core API (`CompiledEmbedding::apply`,
//! `compile_translation`, `EmbeddingRegistry::key_for`) rather than through
//! the service's dispatcher, so a dispatcher bug cannot hide in its own
//! oracle.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use xse_core::CompiledEmbedding;
use xse_discovery::find_embedding;
use xse_dtd::{Dtd, GenConfig, InstanceGenerator};
use xse_rxpath::parse_query;
use xse_service::loadgen::{build_pairs, loadgen_discovery, SchemaPair};
use xse_service::registry::default_similarity;
use xse_service::{EmbeddingRegistry, PairKey, Request, Response, ServiceError};
use xse_workloads::querygen::{random_queries, QueryConfig};
use xse_xmltree::{parse_xml, XmlTree};

/// A frame (8-byte header plus payload) larger than this is written to
/// the socket as two writes, because it overflows the 8 KiB `BufWriter`.
pub const BUFFER_BYTES: usize = 8192;

/// Payload bytes of one full TCP segment on loopback: the 65 536-byte
/// MTU less the IP and TCP headers with timestamps. A payload at least
/// this large leaves at once as a full segment, which Nagle never holds.
pub const SEGMENT_BYTES: usize = 65483;

/// Whether a frame with this payload reaches the socket as two writes.
pub fn over_buffer(payload: usize) -> bool {
    8 + payload > BUFFER_BYTES
}

/// Whether a frame with this payload waits for the peer's delayed ACK:
/// its header goes out alone, and Nagle holds the payload, shorter than
/// a full segment, until that header is acknowledged.
pub fn stall_prone(payload: usize) -> bool {
    over_buffer(payload) && payload < SEGMENT_BYTES
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    TranslateHot,
    DocMigrate,
    SchemaChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TranslateHot,
        Workload::DocMigrate,
        Workload::SchemaChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TranslateHot => "translate-hot",
            Workload::DocMigrate => "doc-migrate",
            Workload::SchemaChurn => "schema-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Registry capacity: the default, except that `schema-churn` keeps
    /// half its 32-pair population so popular pairs evict unpopular ones.
    pub fn registry_capacity(self) -> Option<usize> {
        match self {
            Workload::SchemaChurn => Some(16),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Compile,
    Apply,
    Invert,
    Translate,
}

impl Op {
    pub const ALL: [Op; 4] = [Op::Translate, Op::Apply, Op::Invert, Op::Compile];

    pub fn name(self) -> &'static str {
        match self {
            Op::Compile => "compile",
            Op::Apply => "apply",
            Op::Invert => "invert",
            Op::Translate => "translate",
        }
    }

    pub fn index(self) -> usize {
        Op::ALL.iter().position(|&o| o == self).expect("in ALL")
    }
}

/// The answer a request must get.
pub enum Expect {
    /// `apply` gives the target document, `invert` the original source.
    Document(String),
    /// `translate`: the in-process plan's size and state count.
    Translated { size: u64, states: u64 },
    /// `compile`: `EmbeddingRegistry::key_for` hashes and the engine size.
    Compiled {
        source_hash: String,
        target_hash: String,
        size: u64,
    },
    /// Any request on a pair discovery cannot embed.
    NoEmbedding,
}

impl Expect {
    /// Whether a served response is this answer. `translate`'s plan-cache
    /// counters depend on the order of earlier requests, so only size and
    /// state count are compared.
    pub fn matches(&self, resp: &Response) -> bool {
        match (self, resp) {
            (Expect::Document(want), Response::Document { xml }) => want == xml,
            (
                Expect::Translated { size, states },
                Response::Translated {
                    size: s, states: n, ..
                },
            ) => size == s && states == n,
            (
                Expect::Compiled {
                    source_hash,
                    target_hash,
                    size,
                },
                Response::Compiled {
                    source_hash: sh,
                    target_hash: th,
                    size: n,
                },
            ) => source_hash == sh && target_hash == th && size == n,
            (Expect::NoEmbedding, Response::Error { code, .. }) => {
                *code == ServiceError::NoEmbedding.code()
            }
            _ => false,
        }
    }

    /// The response the server sends for this answer (plan counters
    /// zeroed: they are fixed-width, so the encoded length is exact).
    fn response(&self) -> Response {
        match self {
            Expect::Document(xml) => Response::Document { xml: xml.clone() },
            Expect::Translated { size, states } => Response::Translated {
                size: *size,
                states: *states,
                plan_hits: 0,
                plan_misses: 0,
            },
            Expect::Compiled {
                source_hash,
                target_hash,
                size,
            } => Response::Compiled {
                source_hash: source_hash.clone(),
                target_hash: target_hash.clone(),
                size: *size,
            },
            Expect::NoEmbedding => ServiceError::NoEmbedding.to_response(),
        }
    }
}

/// One request with its encoded payload and its expected answer.
pub struct Call {
    pub pair: usize,
    pub op: Op,
    pub req: Request,
    pub bytes: Vec<u8>,
    pub expect: Expect,
    /// Source nodes in plus target nodes out (`apply`/`invert`), else 0.
    pub nodes: u64,
}

pub struct Pair {
    pub name: String,
    pub source_text: String,
    pub target_text: String,
    pub source: Dtd,
    pub target: Dtd,
    pub key: PairKey,
    /// `None` for the deliberately non-embeddable pairs.
    pub engine: Option<CompiledEmbedding>,
}

/// How many inputs of each kind a workload generates per pair. Inputs the
/// stream never draws still serve the traced run's off-path probe.
struct Shape {
    pairs: usize,
    queries: usize,
    max_depth: usize,
    /// Documents to generate: a node budget and how many near it.
    docs: &'static [(usize, usize)],
}

const SMALL: usize = 40;
const MEDIUM: usize = 300;
const LARGE: usize = 1200;

impl Workload {
    fn shape(self) -> Shape {
        match self {
            Workload::TranslateHot => Shape {
                pairs: 8,
                queries: 400,
                max_depth: 4,
                docs: &[(SMALL, 1)],
            },
            Workload::DocMigrate => Shape {
                pairs: 8,
                queries: 8,
                max_depth: 4,
                // An assumed size mix (no recorded migration traffic
                // exists): 40% small, 40% medium, 20% large documents.
                // Which calls stall is not chosen here; it follows from
                // the frame sizes of the documents generated. Many
                // documents per class keep that share from moving much
                // with the seed.
                docs: &[(SMALL, 32), (MEDIUM, 32), (LARGE, 16)],
            },
            Workload::SchemaChurn => Shape {
                pairs: 32,
                queries: 40,
                max_depth: 4,
                docs: &[(SMALL, 3)],
            },
        }
    }
}

/// Seed of the schema population. The pairs stay the same for every
/// `--seed`, so each seed measures the same schema-evolution scenario;
/// the seed draws the documents, the queries and the request stream.
/// Letting it re-draw the noised target schemas too moved the document
/// sizes, and with them every latency, by more than the bounds allow.
const PAIR_SEED: u64 = 7;

/// `schema-churn` pairs (by build order) whose targets are replaced with
/// a schema nothing embeds into: one pair in sixteen.
const NON_EMBEDDABLE: [usize; 2] = [13, 29];

/// `schema-churn` op weights: translate, small-document apply, compile.
/// Assumed, not measured: no recorded traffic exists. Translate leads,
/// as in the service's `translate-heavy` traffic mix, and compile is
/// frequent enough to keep the 16-entry registry churning.
const CHURN_WEIGHTS: [(Op, u32); 3] = [(Op::Translate, 60), (Op::Apply, 25), (Op::Compile, 15)];

pub struct Fixture {
    pub workload: Workload,
    pub seed: u64,
    pub pairs: Vec<Pair>,
    pub calls: Vec<Call>,
    /// Compile calls sent over the wire during set-up.
    pub setup: Vec<usize>,
    /// One call per (embeddable pair, op) for the traced run's probe.
    pub probe: Vec<usize>,
    mix: Mix,
}

enum Mix {
    /// Pair uniform, query Zipf-ranked within the pair.
    Translate {
        calls: Vec<Vec<usize>>,
        cdf: Vec<Vec<f64>>,
    },
    /// Every `apply` and `invert` call once per shuffled deck: each
    /// document is migrated and restored equally often, and whether a
    /// call stalls follows from its frame sizes.
    Migrate { calls: Vec<usize> },
    /// Pair by Zipf popularity, then op by `CHURN_WEIGHTS`.
    Churn {
        rank_cdf: Vec<f64>,
        by_rank: Vec<usize>,
        translate: Vec<Vec<usize>>,
        apply: Vec<Vec<usize>>,
        compile: Vec<usize>,
    },
}

/// Cumulative Zipf (s = 1) weights over `n` ranks, normalised to 1.
/// The exponent is assumed, as in the service's `repeated-query` traffic
/// mix (weight ∝ 1/rank); no recorded popularity exists to fit it to.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64;
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn draw(cdf: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.random();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Documents near each node budget: several generator seeds per document,
/// keeping the tree whose size is closest, so a seed changes the content
/// but not the size class.
fn documents(dtd: &Dtd, budgets: &[(usize, usize)], seed: u64) -> Vec<XmlTree> {
    budgets
        .iter()
        .flat_map(|&(budget, count)| std::iter::repeat_n(budget, count))
        .enumerate()
        .map(|(i, budget)| {
            let gen = InstanceGenerator::new(
                dtd,
                GenConfig {
                    max_nodes: budget,
                    ..GenConfig::default()
                },
            );
            (0..12u64)
                .map(|k| gen.generate(seed.wrapping_mul(1000).wrapping_add(i as u64 * 100 + k)))
                .min_by_key(|t| t.len().abs_diff(budget))
                .expect("at least one candidate")
        })
        .collect()
}

/// A target the pair's source cannot embed into: a single text-only
/// element offers no place for the source's element structure.
fn non_embeddable_target(source: &Dtd) -> String {
    format!("<!ELEMENT {} (#PCDATA)>", source.name(source.root()))
}

impl Fixture {
    pub fn build(workload: Workload, seed: u64) -> Fixture {
        let shape = workload.shape();
        let mut raw: Vec<SchemaPair> = build_pairs(shape.pairs, PAIR_SEED);
        if workload == Workload::SchemaChurn {
            for &i in &NON_EMBEDDABLE {
                let source = Dtd::parse(&raw[i].source_text).expect("fixture DTD parses");
                raw[i].target_text = non_embeddable_target(&source);
            }
        }
        let cfg = loadgen_discovery();
        let pairs: Vec<Pair> = raw
            .into_iter()
            .map(|p| {
                let source = Dtd::parse(&p.source_text).expect("fixture DTD parses");
                let target = Dtd::parse(&p.target_text).expect("fixture DTD parses");
                let key = EmbeddingRegistry::key_for(&p.source_text, &p.target_text)
                    .expect("fixture DTDs parse");
                let engine = find_embedding(
                    &source,
                    &target,
                    &default_similarity(&source, &target),
                    &cfg,
                );
                Pair {
                    name: p.name,
                    source_text: p.source_text,
                    target_text: p.target_text,
                    source,
                    target,
                    key,
                    engine,
                }
            })
            .collect();
        for (i, p) in pairs.iter().enumerate() {
            let meant = workload == Workload::SchemaChurn && NON_EMBEDDABLE.contains(&i);
            assert_eq!(
                p.engine.is_none(),
                meant,
                "pair {} embeddability differs from the fixture's design",
                p.name
            );
        }

        let mut calls = Vec::new();
        let mut by_pair_op: Vec<[Vec<usize>; 4]> = Vec::new();
        for (pi, pair) in pairs.iter().enumerate() {
            let pseed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(pi as u64);
            let mut mine: [Vec<usize>; 4] = Default::default();
            let mut push = |calls: &mut Vec<Call>, op: Op, req: Request, expect, nodes| {
                mine[op.index()].push(calls.len());
                calls.push(make_call(pi, op, req, expect, nodes));
            };
            let texts = (pair.source_text.clone(), pair.target_text.clone());
            let compile_expect = match &pair.engine {
                Some(e) => Expect::Compiled {
                    source_hash: pair.key.source.to_hex(),
                    target_hash: pair.key.target.to_hex(),
                    size: e.size() as u64,
                },
                None => Expect::NoEmbedding,
            };
            push(
                &mut calls,
                Op::Compile,
                Request::Compile {
                    source_dtd: texts.0.clone(),
                    target_dtd: texts.1.clone(),
                },
                compile_expect,
                0,
            );
            let docs = documents(&pair.source, shape.docs, pseed);
            for doc in docs {
                let src_xml = doc.to_xml();
                let Some(engine) = &pair.engine else {
                    let req = Request::Apply {
                        source_dtd: texts.0.clone(),
                        target_dtd: texts.1.clone(),
                        xml: src_xml,
                    };
                    push(&mut calls, Op::Apply, req, Expect::NoEmbedding, 0);
                    continue;
                };
                let out = engine.apply(&doc).expect("generated documents are valid");
                let tgt_xml = out.tree.to_xml();
                let nodes = (doc.len() + out.tree.len()) as u64;
                let back = engine
                    .invert(&parse_xml(&tgt_xml).expect("serialized target parses"))
                    .expect("σd(T) inverts");
                assert_eq!(back.to_xml(), src_xml, "σd⁻¹(σd(T)) = T in-process");
                let apply = Request::Apply {
                    source_dtd: texts.0.clone(),
                    target_dtd: texts.1.clone(),
                    xml: src_xml.clone(),
                };
                let expect = Expect::Document(tgt_xml.clone());
                push(&mut calls, Op::Apply, apply, expect, nodes);
                let invert = Request::Invert {
                    source_dtd: texts.0.clone(),
                    target_dtd: texts.1.clone(),
                    xml: tgt_xml,
                };
                let expect = Expect::Document(src_xml);
                push(&mut calls, Op::Invert, invert, expect, nodes);
            }
            let qcfg = QueryConfig {
                max_depth: shape.max_depth,
                qualifier_p: 0.15,
                union_p: 0.1,
                star_p: 0.1,
            };
            for q in random_queries(&pair.source, qcfg, pseed, shape.queries) {
                let text = q.to_string();
                let expect = match &pair.engine {
                    Some(engine) => {
                        let parsed = parse_query(&text).expect("generated queries parse");
                        match engine.compile_translation(&parsed) {
                            Ok(plan) => Expect::Translated {
                                size: plan.size() as u64,
                                states: plan.state_count() as u64,
                            },
                            // Queries the engine cannot translate are left
                            // out: every workload request must succeed.
                            Err(_) => continue,
                        }
                    }
                    None => Expect::NoEmbedding,
                };
                let req = Request::Translate {
                    source_dtd: texts.0.clone(),
                    target_dtd: texts.1.clone(),
                    query: text,
                };
                push(&mut calls, Op::Translate, req, expect, 0);
            }
            by_pair_op.push(mine);
        }

        let setup = match workload {
            Workload::SchemaChurn => Vec::new(),
            _ => by_pair_op
                .iter()
                .map(|m| m[Op::Compile.index()][0])
                .collect(),
        };
        let probe = pairs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.engine.is_some())
            .flat_map(|(pi, _)| {
                Op::ALL
                    .iter()
                    .filter_map(|op| by_pair_op[pi][op.index()].first().copied())
                    .collect::<Vec<_>>()
            })
            .collect();

        let mix = match workload {
            Workload::TranslateHot => {
                let calls: Vec<Vec<usize>> = by_pair_op
                    .iter()
                    .map(|m| m[Op::Translate.index()].clone())
                    .collect();
                let cdf = calls.iter().map(|c| zipf_cdf(c.len())).collect();
                Mix::Translate { calls, cdf }
            }
            Workload::DocMigrate => Mix::Migrate {
                calls: by_pair_op
                    .iter()
                    .flat_map(|m| m[Op::Apply.index()].iter().chain(&m[Op::Invert.index()]))
                    .copied()
                    .collect(),
            },
            Workload::SchemaChurn => {
                // Popularity interleaves build order (corpus, then scale
                // schemas of growing size), so hot and cold pairs both
                // span small and large schemas.
                let n = pairs.len();
                let by_rank = (0..n).map(|r| (r % 4) * (n / 4) + r / 4).collect();
                Mix::Churn {
                    rank_cdf: zipf_cdf(n),
                    by_rank,
                    translate: by_pair_op
                        .iter()
                        .map(|m| m[Op::Translate.index()].clone())
                        .collect(),
                    apply: by_pair_op
                        .iter()
                        .map(|m| m[Op::Apply.index()].clone())
                        .collect(),
                    compile: by_pair_op
                        .iter()
                        .map(|m| m[Op::Compile.index()][0])
                        .collect(),
                }
            }
        };
        Fixture {
            workload,
            seed,
            pairs,
            calls,
            setup,
            probe,
            mix,
        }
    }

    /// Connection `conn`'s request stream: an endless, seeded sequence of
    /// call indices. The traced run replays the same streams.
    pub fn stream(&self, conn: usize) -> Stream<'_> {
        Stream {
            fx: self,
            rng: StdRng::seed_from_u64(self.seed ^ (0xC0FF_EE00 + conn as u64)),
            deck: Vec::new(),
        }
    }

    /// FNV-1a over every request payload, every expected response and
    /// the first 10 000 draws of each connection's stream: equal
    /// fingerprints mean two runs measured identical inputs.
    pub fn fingerprint(&self, connections: usize) -> u64 {
        let mut h = Fnv::new();
        for c in &self.calls {
            h.bytes(&c.bytes);
            h.bytes(&c.expect.response().encode());
        }
        for conn in 0..connections {
            for idx in self.stream(conn).take(10_000) {
                h.bytes(&(idx as u64).to_le_bytes());
            }
        }
        h.0
    }
}

fn make_call(pair: usize, op: Op, req: Request, expect: Expect, nodes: u64) -> Call {
    let bytes = req.encode();
    Call {
        pair,
        op,
        req,
        bytes,
        expect,
        nodes,
    }
}

pub struct Stream<'a> {
    fx: &'a Fixture,
    rng: StdRng,
    /// `doc-migrate`'s calls still to come in the current deck.
    deck: Vec<usize>,
}

impl Iterator for Stream<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let rng = &mut self.rng;
        Some(match &self.fx.mix {
            Mix::Translate { calls, cdf } => {
                let p = rng.random_range(0..calls.len());
                calls[p][draw(&cdf[p], rng)]
            }
            Mix::Migrate { calls } => {
                if self.deck.is_empty() {
                    self.deck.clone_from(calls);
                    self.deck.shuffle(rng);
                }
                self.deck.pop().expect("deck refilled")
            }
            Mix::Churn {
                rank_cdf,
                by_rank,
                translate,
                apply,
                compile,
            } => {
                let p = by_rank[draw(rank_cdf, rng)];
                let total: u32 = CHURN_WEIGHTS.iter().map(|w| w.1).sum();
                let mut pick = rng.random_range(0..total);
                let op = CHURN_WEIGHTS
                    .iter()
                    .find(|&&(_, w)| {
                        let hit = pick < w;
                        pick = pick.saturating_sub(w);
                        hit
                    })
                    .expect("weights cover the range")
                    .0;
                match op {
                    Op::Translate if !translate[p].is_empty() => {
                        translate[p][rng.random_range(0..translate[p].len())]
                    }
                    Op::Apply | Op::Translate => apply[p][rng.random_range(0..apply[p].len())],
                    _ => compile[p],
                }
            }
        })
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
