//! The traced replay: each request of the seeded stream is taken apart
//! into the public calls the server makes for it, timed one by one from
//! this file, next to the `Client::call` that carries it over TCP.
//!
//! Per request, in this order (all on the server's own registry):
//!
//! 1. `registry.miss` — only when the pair is not cached: the
//!    `get_or_compile` that compiles it, so the steps after it see the
//!    pair warm, as the server's own call does.
//! 2. `stages` — the server's work call by call: `Request::decode`, then
//!    what `handle_request` runs (`get_or_compile`, `parse_xml` /
//!    `parse_query`, the engine call, `to_xml`), then `Response::encode`.
//!    Its span less the decode and encode spans stands for
//!    `handle_request`; its child spans over its own span is
//!    `trace.coverage`, both from this one execution.
//! 3. `client.call` — the request over the wire; minus the
//!    `handle_request` stand-in of step 2, the wire overhead.
//! 4. `dtd.validate` and `core.plan_compile` — calls the engine makes
//!    internally, timed on their own beside the stages.
//!
//! Spans stay in memory and are written out when the run ends.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use xse_discovery::find_embedding_with_stats;
use xse_dtd::Dtd;
use xse_rxpath::parse_query;
use xse_service::loadgen::loadgen_discovery;
use xse_service::registry::default_similarity;
use xse_service::{Client, EmbeddingRegistry, PairKey, Request, Response, ServiceError};
use xse_xmltree::{parse_xml, XmlTree};

use crate::drive::Served;
use crate::fixture::{over_buffer, stall_prone, Call, Fixture, Stream};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Name {
    Request,
    Probe,
    RegistryMiss,
    Stages,
    ProtoDecode,
    RegistryLookup,
    XmlParse,
    QueryParse,
    CoreApply,
    CoreInvert,
    CoreTranslate,
    XmlSerialize,
    ProtoEncode,
    DtdValidate,
    PlanCompile,
    ClientCall,
    DtdParse,
    Discovery,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::Probe => "probe",
            Name::RegistryMiss => "registry.miss",
            Name::Stages => "stages",
            Name::ProtoDecode => "proto.decode",
            Name::RegistryLookup => "registry.lookup",
            Name::XmlParse => "xmltree.parse",
            Name::QueryParse => "rxpath.parse_query",
            Name::CoreApply => "core.apply",
            Name::CoreInvert => "core.invert",
            Name::CoreTranslate => "core.translate",
            Name::XmlSerialize => "xmltree.serialize",
            Name::ProtoEncode => "proto.encode",
            Name::DtdValidate => "dtd.validate",
            Name::PlanCompile => "core.plan_compile",
            Name::ClientCall => "client.call",
            Name::DtdParse => "dtd.parse",
            Name::Discovery => "discovery.compile",
        }
    }
}

/// One timed call. Ids are unique within the run; `parent` is 0 for a
/// root. `work` is the call's size: bytes for the protocol spans, nodes
/// for the tree spans, restart attempts for discovery, else 0.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: u64,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: u64,
    /// Recorded by the off-path probe, not by the request stream.
    pub probe: bool,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Open {
    id: u64,
    parent: u64,
    name: Name,
    start: Instant,
}

/// Per-thread span buffer. Ids carry the thread number in their high
/// bits so buffers merge without renumbering.
pub struct Recorder {
    epoch: Instant,
    next: u64,
    req: u64,
    probe: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            epoch,
            next: thread << 40,
            req: 0,
            probe: false,
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: Name, parent: u64) -> Open {
        self.next += 1;
        if parent == 0 {
            self.req = self.next;
        }
        Open {
            id: self.next,
            parent,
            name,
            start: Instant::now(),
        }
    }

    fn close(&mut self, o: Open, work: u64) {
        let end = Instant::now();
        self.spans.push(Span {
            req: self.req,
            id: o.id,
            parent: o.parent,
            name: o.name,
            start_ns: (o.start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            work,
            probe: self.probe,
        });
    }

    fn time<T>(&mut self, name: Name, parent: u64, f: impl FnOnce() -> T) -> T {
        let o = self.open(name, parent);
        let out = f();
        self.close(o, 0);
        out
    }
}

/// Whether the registry holds a compiled entry for `key` right now.
fn resident(registry: &EmbeddingRegistry, key: PairKey) -> bool {
    registry.entry_stats().iter().any(|(k, _)| *k == key)
}

/// The server's work for one request, call by call: `handle_request`'s
/// calls, plus the decode and encode around it. Returns the response and the document the request
/// carried (for the separate validation span).
fn stages(
    rec: &mut Recorder,
    registry: &EmbeddingRegistry,
    call: &Call,
    parent: u64,
) -> (Response, Option<XmlTree>) {
    let st = rec.open(Name::Stages, parent);
    let o = rec.open(Name::ProtoDecode, st.id);
    let decoded = Request::decode(&call.bytes);
    rec.close(o, call.bytes.len() as u64);
    let mut doc_in = None;
    let result = match decoded {
        Err(code) => Err(ServiceError::Protocol(format!("decode failed: {code:?}"))),
        Ok(req) => {
            let (source_dtd, target_dtd) = match &req {
                Request::Compile {
                    source_dtd,
                    target_dtd,
                }
                | Request::Apply {
                    source_dtd,
                    target_dtd,
                    ..
                }
                | Request::Invert {
                    source_dtd,
                    target_dtd,
                    ..
                }
                | Request::Translate {
                    source_dtd,
                    target_dtd,
                    ..
                } => (source_dtd.as_str(), target_dtd.as_str()),
                _ => unreachable!("workloads send only compile/apply/invert/translate"),
            };
            let looked_up = rec.time(Name::RegistryLookup, st.id, || {
                registry.get_or_compile(source_dtd, target_dtd)
            });
            looked_up.and_then(|(key, engine)| match &req {
                Request::Compile { .. } => Ok(Response::Compiled {
                    source_hash: key.source.to_hex(),
                    target_hash: key.target.to_hex(),
                    size: engine.size() as u64,
                }),
                Request::Apply { xml, .. } | Request::Invert { xml, .. } => {
                    let o = rec.open(Name::XmlParse, st.id);
                    let doc = parse_xml(xml).map_err(|e| ServiceError::BadDocument(e.to_string()));
                    rec.close(o, doc.as_ref().map_or(0, |d| d.len() as u64));
                    let doc = doc?;
                    let is_apply = matches!(req, Request::Apply { .. });
                    let name = if is_apply {
                        Name::CoreApply
                    } else {
                        Name::CoreInvert
                    };
                    let o = rec.open(name, st.id);
                    let out = if is_apply {
                        engine.apply(&doc).map(|m| m.tree)
                    } else {
                        engine.invert(&doc)
                    };
                    rec.close(o, doc.len() as u64);
                    let out = out.map_err(|e| ServiceError::Engine(e.to_string()))?;
                    let o = rec.open(Name::XmlSerialize, st.id);
                    let xml = out.to_xml();
                    rec.close(o, out.len() as u64);
                    doc_in = Some(doc);
                    Ok(Response::Document { xml })
                }
                Request::Translate { query, .. } => {
                    let q = rec.time(Name::QueryParse, st.id, || parse_query(query));
                    let q = q.map_err(|e| ServiceError::BadQuery(e.to_string()))?;
                    // The span's work marks a plan-cache miss, which the
                    // server's own call after it does not pay.
                    let misses = engine.plan_stats().misses;
                    let o = rec.open(Name::CoreTranslate, st.id);
                    let tr = engine.translate(&q);
                    let plan = engine.plan_stats();
                    rec.close(o, u64::from(plan.misses > misses));
                    let tr = tr.map_err(|e| ServiceError::Engine(e.to_string()))?;
                    Ok(Response::Translated {
                        size: tr.size() as u64,
                        states: tr.anfa.state_count() as u64,
                        plan_hits: plan.hits,
                        plan_misses: plan.misses,
                    })
                }
                _ => unreachable!("matched above"),
            })
        }
    };
    let resp = result.unwrap_or_else(|e| e.to_response());
    let o = rec.open(Name::ProtoEncode, st.id);
    let len = resp.encode().len();
    rec.close(o, len as u64);
    rec.close(st, 0);
    (resp, doc_in)
}

/// One request, traced as the module docs lay out, under a new root
/// span. `wire` is the connection (and the address to re-open it) for a
/// request of the stream, `None` for the probe. Returns whether every
/// answer matched the oracle.
fn trace_one(
    rec: &mut Recorder,
    fx: &Fixture,
    registry: &EmbeddingRegistry,
    idx: usize,
    plan_probed: &mut HashSet<usize>,
    wire: Option<(&mut Client, SocketAddr)>,
) -> bool {
    let call = &fx.calls[idx];
    let pair = &fx.pairs[call.pair];
    let root = rec.open(
        if wire.is_some() {
            Name::Request
        } else {
            Name::Probe
        },
        0,
    );
    let mut ok = true;
    if pair.engine.is_some() && !resident(registry, pair.key) {
        let r = rec.time(Name::RegistryMiss, root.id, || {
            registry.get_or_compile(&pair.source_text, &pair.target_text)
        });
        ok &= r.is_ok();
    }
    let (resp, doc) = stages(rec, registry, call, root.id);
    ok &= call.expect.matches(&resp);
    if let Some((client, addr)) = wire {
        let resp = rec.time(Name::ClientCall, root.id, || client.call(&call.req));
        ok &= matches!(&resp, Ok(r) if call.expect.matches(r));
        if resp.is_err() {
            if let Ok(c) = Client::connect(addr) {
                *client = c;
            }
        }
    }
    if let Some(engine) = &pair.engine {
        match (&call.req, doc) {
            (Request::Apply { .. }, Some(doc)) => {
                let o = rec.open(Name::DtdValidate, root.id);
                ok &= pair.source.validate(&doc).is_ok();
                rec.close(o, doc.len() as u64);
            }
            (Request::Invert { .. }, Some(doc)) => {
                let o = rec.open(Name::DtdValidate, root.id);
                ok &= pair.target.validate(&doc).is_ok();
                rec.close(o, doc.len() as u64);
            }
            (Request::Translate { query, .. }, _) if plan_probed.insert(idx) => {
                let q = parse_query(query).expect("fixture queries parse");
                let plan = rec.time(Name::PlanCompile, root.id, || {
                    engine.compile_translation(&q)
                });
                ok &= plan.is_ok();
            }
            _ => {}
        }
    }
    rec.close(root, 0);
    ok
}

/// What the traced replay observed.
pub struct TraceResult {
    pub spans: Vec<Span>,
    /// Checks made, stream requests and probe checks together, and how
    /// many of them differed from the oracle.
    pub attempted: u64,
    pub failed: u64,
    /// Stream requests replayed.
    pub completed: u64,
    pub elapsed: Duration,
    /// Whether discovery found an embedding, per pair (probe).
    pub found: Vec<bool>,
}

/// Requests one connection traces at most. Spans stay in memory until
/// the run ends; this keeps the fast workloads' span files to tens of MB.
const MAX_TRACED_PER_CONNECTION: u64 = 10_000;

/// Replay the streams for `dur` (or `MAX_TRACED_PER_CONNECTION`
/// requests per connection) with every request traced, then run the
/// off-path probe on the same registry.
pub fn traced_replay(
    fx: &Fixture,
    served: &mut Served,
    streams: &mut [Stream<'_>],
    dur: Duration,
) -> TraceResult {
    let epoch = Instant::now();
    let deadline = epoch + dur;
    let registry = &*served.registry;
    let addr = served.server.addr();
    let mut spans = Vec::new();
    let (mut attempted, mut failed, mut elapsed) = (0u64, 0u64, Duration::ZERO);
    std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(t, (client, stream))| {
                s.spawn(move || {
                    let mut rec = Recorder::new(epoch, t as u64 + 1);
                    let mut plan_probed = HashSet::new();
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    loop {
                        let idx = stream.next().expect("streams are endless");
                        let wire = Some((&mut *client, addr));
                        let ok = trace_one(&mut rec, fx, registry, idx, &mut plan_probed, wire);
                        attempted += 1;
                        failed += u64::from(!ok);
                        let now = Instant::now();
                        if now >= deadline || attempted >= MAX_TRACED_PER_CONNECTION {
                            return (rec.spans, attempted, failed, now - epoch);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            let (s, a, f, e) = h.join().expect("traced thread panicked");
            spans.extend(s);
            attempted += a;
            failed += f;
            elapsed = elapsed.max(e);
        }
    });
    let completed = attempted;
    let mut rec = Recorder::new(epoch, 0);
    rec.probe = true;
    let (probe_attempted, probe_failed, found) = probe(&mut rec, fx, registry);
    spans.extend(rec.spans);
    TraceResult {
        spans,
        attempted: attempted + probe_attempted,
        failed: failed + probe_failed,
        completed,
        elapsed,
        found,
    }
}

/// Repetitions of each probe measurement.
const PROBE_REPS: usize = 5;

/// Off-path measurements on the workload's own pairs, for layers its
/// request stream does not reach (and for the per-pair layers —
/// DTD parsing and discovery — that only run on a compile): one call of
/// every op per pair taken apart as in the replay, the pair's two DTD
/// parses, discovery with its restart counts, and an evict-then-compile.
/// Returns the checks made (one per request taken apart, one per pair),
/// how many failed, and whether discovery found an embedding per pair.
fn probe(rec: &mut Recorder, fx: &Fixture, registry: &EmbeddingRegistry) -> (u64, u64, Vec<bool>) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    for &idx in &fx.probe {
        for _ in 0..PROBE_REPS {
            let ok = trace_one(rec, fx, registry, idx, &mut HashSet::new(), None);
            attempted += 1;
            failed += u64::from(!ok);
        }
    }
    let cfg = loadgen_discovery();
    let mut found = Vec::new();
    for pair in &fx.pairs {
        let root = rec.open(Name::Probe, 0);
        let mut ok = true;
        for _ in 0..PROBE_REPS {
            for text in [&pair.source_text, &pair.target_text] {
                let o = rec.open(Name::DtdParse, root.id);
                ok &= Dtd::parse(text).is_ok();
                rec.close(o, text.len() as u64);
            }
        }
        let att = default_similarity(&pair.source, &pair.target);
        let o = rec.open(Name::Discovery, root.id);
        let (engine, stats) = find_embedding_with_stats(&pair.source, &pair.target, &att, &cfg);
        rec.close(o, stats.attempts as u64);
        found.push(engine.is_some());
        ok &= engine.is_some() == pair.engine.is_some();
        if pair.engine.is_some() {
            registry.evict_key(pair.key);
            let r = rec.time(Name::RegistryMiss, root.id, || {
                registry.get_or_compile(&pair.source_text, &pair.target_text)
            });
            ok &= r.is_ok();
        }
        rec.close(root, 0);
        attempted += 1;
        failed += u64::from(!ok);
    }
    (attempted, failed, found)
}

/// Spans as tab-separated lines, one per span, with a header.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("req\tid\tparent\tname\tstart_ns\tend_ns\twork\tprobe\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.req,
            s.id,
            s.parent,
            s.name.as_str(),
            s.start_ns,
            s.end_ns,
            s.work,
            u8::from(s.probe)
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// The traced view of one request of the stream.
pub struct ReqView {
    /// `client.call` minus the `handle_request` stand-in.
    pub overhead_ns: i64,
    /// The request or its response frame overflowed the write buffer.
    pub big_frame: bool,
    /// The request or its response frame was stall-prone.
    pub stall_prone: bool,
    /// Server-side total: `registry.miss` plus the `handle_request`
    /// stand-in (the `stages` span less its decode and encode).
    pub handle_ns: u64,
    /// The `stages` span, and the summed spans of its children.
    pub stage_ns: u64,
    pub children_ns: u64,
    /// The stages met a plan-cache miss, which `client.call`, right
    /// after them, did not pay; its wire overhead reads low.
    pub plan_miss: bool,
}

/// One view per request of the stream, in request order.
pub fn request_views(spans: &[Span]) -> Vec<ReqView> {
    use std::collections::BTreeMap;
    #[derive(Default)]
    struct Acc {
        call: u64,
        miss: u64,
        stages: u64,
        children: u64,
        decode: u64,
        encode: u64,
        req_bytes: u64,
        resp_bytes: u64,
        plan_miss: bool,
    }
    let stream = || spans.iter().filter(|s| !s.probe);
    let stage_ids: HashSet<u64> = stream()
        .filter(|s| s.name == Name::Stages)
        .map(|s| s.id)
        .collect();
    let mut by_req: BTreeMap<u64, Acc> = BTreeMap::new();
    for s in stream() {
        let a = by_req.entry(s.req).or_default();
        match s.name {
            Name::ClientCall => a.call = s.ns(),
            Name::RegistryMiss => a.miss = s.ns(),
            Name::Stages => a.stages = s.ns(),
            Name::ProtoDecode => {
                a.decode = s.ns();
                a.req_bytes = s.work;
            }
            Name::ProtoEncode => {
                a.encode = s.ns();
                a.resp_bytes = s.work;
            }
            Name::CoreTranslate => a.plan_miss = s.work > 0,
            _ => {}
        }
        if stage_ids.contains(&s.parent) {
            a.children += s.ns();
        }
    }
    by_req
        .into_values()
        .filter(|a| a.call > 0)
        .map(|a| {
            let handle = a.stages.saturating_sub(a.decode + a.encode);
            ReqView {
                overhead_ns: a.call as i64 - handle as i64,
                big_frame: over_buffer(a.req_bytes as usize) || over_buffer(a.resp_bytes as usize),
                stall_prone: stall_prone(a.req_bytes as usize)
                    || stall_prone(a.resp_bytes as usize),
                handle_ns: a.miss + handle,
                stage_ns: a.stages,
                children_ns: a.children,
                plan_miss: a.plan_miss,
            }
        })
        .collect()
}
