//! Load generator: replays [`TrafficMix`] request streams against a
//! running server over `connections` × `inflight` TCP requests.
//!
//! Fixtures are *embeddable by construction*: each [`SchemaPair`] takes a
//! corpus (or synthetic) DTD as the source and a
//! [`noised_copy`](xse_workloads::noise::noised_copy()) of it as the target,
//! retrying noise seeds until discovery verifiably succeeds — so the replay
//! measures serving behaviour, not discovery failure rates. Setup also
//! pre-computes source documents, their images under `σd` (for `invert`
//! traffic), and translatable queries, all serialized to text exactly as a
//! remote client would hold them.
//!
//! The replay itself is deterministic per `(mix, seed, pairs)`: each
//! connection draws its op kinds, pair choices and payload choices from
//! its own seeded [`StdRng`]. Pairs are compiled once, untimed, before
//! the timed section; `cold` mode skips that and instead issues an
//! **untimed** evict for the chosen pair before every timed op, forcing
//! each request to pay the compile path — the baseline against which the
//! warm cache's speedup is measured.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xse_discovery::{find_embedding, DiscoveryConfig};
use xse_dtd::{Dtd, GenConfig, InstanceGenerator};
use xse_workloads::corpus::corpus;
use xse_workloads::noise::{noised_copy, NoiseConfig};
use xse_workloads::querygen::{random_queries, QueryConfig};
use xse_workloads::scale;
use xse_workloads::traffic::{ServiceOp, TrafficMix};

use crate::proto::{ErrorCode, Request, Response, StatsWire};
use crate::registry::default_similarity;
use crate::{Client, ClientConfig, RetryPolicy, RetryStats, RetryingClient, ServiceError};

/// One source/target schema pair with pre-generated request payloads.
pub struct SchemaPair {
    /// Corpus name (or `scale-N` for synthetic schemas).
    pub name: String,
    /// Source DTD text.
    pub source_text: String,
    /// Target DTD text (a noised, embeddable copy of the source).
    pub target_text: String,
    /// Source documents, serialized.
    pub docs: Vec<String>,
    /// The same documents mapped through `σd`, serialized (inputs for
    /// `invert` traffic).
    pub target_docs: Vec<String>,
    /// Source-side XR queries that translate successfully.
    pub queries: Vec<String>,
}

/// The discovery configuration the generator (and any server replaying
/// its fixtures) should use: single-threaded restarts keep per-request
/// compile cost predictable under concurrent load, and discovery results
/// are identical for every thread count anyway.
pub fn loadgen_discovery() -> DiscoveryConfig {
    DiscoveryConfig {
        threads: 1,
        ..DiscoveryConfig::default()
    }
}

/// Build `count` embeddable schema pairs: the workloads corpus first,
/// then synthetic schemas once the corpus is exhausted. Noise seeds are
/// retried (and the noise level lowered) until discovery succeeds; as a
/// last resort the pair degrades to an identity pair (target = source),
/// which is always embeddable.
pub fn build_pairs(count: usize, seed: u64) -> Vec<SchemaPair> {
    let named: Vec<(String, Dtd)> = corpus()
        .into_iter()
        .map(|(n, d)| (n.to_string(), d))
        .chain((0..count).map(|i| {
            let n = 12 + 3 * i;
            (
                format!("scale-{n}"),
                scale::random_schema(n, seed ^ i as u64),
            )
        }))
        .take(count)
        .collect();
    named
        .into_iter()
        .enumerate()
        .map(|(i, (name, source))| build_pair(name, &source, seed.wrapping_add(i as u64)))
        .collect()
}

fn build_pair(name: String, source: &Dtd, seed: u64) -> SchemaPair {
    let cfg = loadgen_discovery();
    let mut chosen: Option<(Dtd, xse_core::CompiledEmbedding)> = None;
    // Setup must predict the registry's verdict exactly, so verification
    // uses the registry's own similarity heuristic and discovery config
    // (discovery is deterministic per seed, independent of thread count).
    'search: for (attempt, level) in [
        (0u64, 0.3),
        (1, 0.3),
        (2, 0.3),
        (3, 0.2),
        (4, 0.2),
        (5, 0.1),
        (6, 0.1),
        (7, 0.05),
    ] {
        let noised = noised_copy(
            source,
            NoiseConfig::level(level),
            seed.wrapping_mul(31) + attempt,
        );
        let att = default_similarity(source, &noised.target);
        if let Some(e) = find_embedding(source, &noised.target, &att, &cfg) {
            chosen = Some((noised.target, e));
            break 'search;
        }
    }
    let (target, engine) = chosen.unwrap_or_else(|| {
        // Identity fallback: a schema always embeds into itself.
        let att = default_similarity(source, source);
        let e = find_embedding(source, source, &att, &cfg)
            .expect("identity embedding must always exist");
        (source.clone(), e)
    });

    let gen = InstanceGenerator::new(
        source,
        GenConfig {
            max_nodes: 120,
            ..GenConfig::default()
        },
    );
    let mut docs = Vec::new();
    let mut target_docs = Vec::new();
    for i in 0..3u64 {
        let doc = gen.generate(seed.wrapping_add(1000 + i));
        if let Ok(out) = engine.apply(&doc) {
            docs.push(doc.to_xml());
            target_docs.push(out.tree.to_xml());
        }
    }
    // Serving-shaped queries: short navigations with occasional
    // qualifiers, the high-QPS lookups a translation tier fields (deep
    // star/union analytics queries belong to the offline benches).
    let qcfg = QueryConfig {
        max_depth: 3,
        qualifier_p: 0.15,
        union_p: 0.1,
        star_p: 0.1,
    };
    let queries: Vec<String> = random_queries(source, qcfg, seed, 12)
        .into_iter()
        .filter(|q| engine.translate(q).is_ok())
        .take(6)
        .map(|q| q.to_string())
        .collect();
    SchemaPair {
        name,
        source_text: source.to_string(),
        target_text: target.to_string(),
        docs,
        target_docs,
        queries,
    }
}

/// Replay parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// The traffic mix every connection samples.
    pub mix: TrafficMix,
    /// Timed operations issued *per connection*.
    pub ops: usize,
    /// Base RNG seed; connection `i` draws from `seed ^ i·φ` (connection 0
    /// from `seed` itself), so the whole replay is deterministic per seed.
    pub seed: u64,
    /// Skip the prewarm and evict the chosen pair (untimed) before every
    /// timed op, forcing the cold compile path. Needs `inflight == 1`.
    pub cold: bool,
    /// Concurrent TCP connections (minimum 1).
    pub connections: usize,
    /// Requests each connection keeps in flight (minimum 1). Answers come
    /// back in request order, so latency includes the wait behind the
    /// connection's earlier requests — what a pipelining caller observes.
    pub inflight: usize,
    /// Deadlines of every connection the replay opens.
    pub client: ClientConfig,
    /// `Some`: every connection is a [`RetryingClient`] with this policy
    /// (connection `i` jitters with `seed ^ i`) that survives transport
    /// failures — the chaos replay. Needs `inflight == 1`. `None`: plain
    /// [`Client`]s, and a transport failure ends that connection's stream.
    pub retry: Option<RetryPolicy>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            mix: TrafficMix::translate_heavy(),
            ops: 400,
            seed: 42,
            cold: false,
            connections: 1,
            inflight: 1,
            client: ClientConfig::default(),
            retry: None,
        }
    }
}

/// Latency digest for one op kind.
#[derive(Clone, Copy, Debug)]
pub struct OpDigest {
    /// Timed requests of this kind.
    pub count: u64,
    /// Median latency.
    pub p50_nanos: u64,
    /// 99th-percentile latency.
    pub p99_nanos: u64,
}

/// Failures bucketed by kind, for the chaos report. Structured error
/// frames and transport errors are disjoint buckets: a request counts in
/// exactly one.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ErrorTaxonomy {
    /// `overloaded` error frames (the server shed the connection).
    pub overloaded: u64,
    /// Timeouts: `timeout` error frames plus client-side deadline expiry.
    pub timeout: u64,
    /// Wire-shape rejections: frame-too-large, malformed payload, unknown
    /// opcode (under chaos, mostly corrupted request frames).
    pub malformed: u64,
    /// Other structured application errors (bad DTD, no embedding, …).
    pub app: u64,
    /// Transport gone: socket errors and connection closures.
    pub io: u64,
    /// Protocol violations observed client-side: truncated or
    /// undecodable response frames.
    pub protocol: u64,
}

impl ErrorTaxonomy {
    fn merge(&mut self, other: &ErrorTaxonomy) {
        self.overloaded += other.overloaded;
        self.timeout += other.timeout;
        self.malformed += other.malformed;
        self.app += other.app;
        self.io += other.io;
        self.protocol += other.protocol;
    }

    fn note_response(&mut self, code: ErrorCode) {
        match code {
            ErrorCode::Overloaded => self.overloaded += 1,
            ErrorCode::Timeout => self.timeout += 1,
            ErrorCode::FrameTooLarge | ErrorCode::Malformed | ErrorCode::UnknownOpcode => {
                self.malformed += 1;
            }
            _ => self.app += 1,
        }
    }

    fn note_transport(&mut self, err: &ServiceError) {
        match err {
            ServiceError::Timeout(_) => self.timeout += 1,
            ServiceError::Protocol(_) => self.protocol += 1,
            _ => self.io += 1,
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"overloaded\":{},\"timeout\":{},\"malformed\":{},\"app\":{},\
             \"io\":{},\"protocol\":{}}}",
            self.overloaded, self.timeout, self.malformed, self.app, self.io, self.protocol
        )
    }
}

/// Machine-readable result of one replay.
pub struct LoadSummary {
    /// Mix name.
    pub mix: String,
    /// Timed operations issued.
    pub ops: u64,
    /// Wall-clock time of the timed section.
    pub elapsed_nanos: u64,
    /// Timed operations per second.
    pub qps: f64,
    /// Registry hit rate at the end of the run (hits / resolutions).
    pub hit_rate: f64,
    /// Translation-plan cache hit rate at the end of the run
    /// (`plan_hits / (plan_hits + plan_misses)`; `0.0` when no
    /// translations ran).
    pub plan_hit_rate: f64,
    /// Transport-level failures (socket errors, undecodable frames).
    pub protocol_errors: u64,
    /// Structured error responses (the request reached the server and was
    /// answered with an error frame).
    pub op_errors: u64,
    /// Failures bucketed by kind (see [`ErrorTaxonomy`]).
    pub errors: ErrorTaxonomy,
    /// `overloaded` error frames observed — requests the server shed.
    pub shed: u64,
    /// Successful responses of the *wrong kind* for their request (e.g. a
    /// `document` answer to a `translate`). Must be zero on any run, chaos
    /// included: corruption is designed to be undecodable, never silently
    /// misread.
    pub misinterpretations: u64,
    /// Retry counters summed over the connections, when they were
    /// [`RetryingClient`]s ([`LoadConfig::retry`]).
    pub retry: Option<RetryStats>,
    /// Per-op latency digests, in [`ServiceOp::ALL`] order, `None` when
    /// the op never ran.
    pub per_op: Vec<(ServiceOp, Option<OpDigest>)>,
    /// Registry counters after the run.
    pub registry: StatsWire,
    /// Latency digest across *all* timed ops (the warm/cold comparison
    /// metric).
    pub overall_digest: Option<OpDigest>,
}

impl LoadSummary {
    /// Render as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut per_op = String::new();
        for (op, digest) in &self.per_op {
            let Some(d) = digest else { continue };
            if !per_op.is_empty() {
                per_op.push(',');
            }
            per_op.push_str(&format!(
                "\"{}\":{{\"count\":{},\"p50_nanos\":{},\"p99_nanos\":{}}}",
                op.name(),
                d.count,
                d.p50_nanos,
                d.p99_nanos
            ));
        }
        let overall = self
            .overall_digest
            .map(|d| {
                format!(
                    "{{\"count\":{},\"p50_nanos\":{},\"p99_nanos\":{}}}",
                    d.count, d.p50_nanos, d.p99_nanos
                )
            })
            .unwrap_or_else(|| "null".into());
        let retry = self
            .retry
            .map(|r| {
                format!(
                    "{{\"attempts\":{},\"retries\":{},\"reconnects\":{}}}",
                    r.attempts, r.retries, r.reconnects
                )
            })
            .unwrap_or_else(|| "null".into());
        format!(
            "{{\"mix\":\"{}\",\"ops\":{},\"elapsed_nanos\":{},\"qps\":{:.2},\
             \"hit_rate\":{:.4},\"plan_hit_rate\":{:.4},\
             \"protocol_errors\":{},\"op_errors\":{},\"shed\":{},\
             \"misinterpretations\":{},\"errors\":{},\"retry\":{retry},\
             \"overall\":{overall},\"per_op\":{{{per_op}}},\
             \"registry\":{{\"hits\":{},\"misses\":{},\"compiles\":{},\
             \"single_flight_waits\":{},\"evictions\":{},\"entries\":{},\
             \"compile_nanos\":{},\"plan_hits\":{},\"plan_misses\":{},\
             \"plan_entries\":{},\"negative_hits\":{}}}}}",
            self.mix,
            self.ops,
            self.elapsed_nanos,
            self.qps,
            self.hit_rate,
            self.plan_hit_rate,
            self.protocol_errors,
            self.op_errors,
            self.shed,
            self.misinterpretations,
            self.errors.to_json(),
            self.registry.hits,
            self.registry.misses,
            self.registry.compiles,
            self.registry.single_flight_waits,
            self.registry.evictions,
            self.registry.entries,
            self.registry.compile_nanos,
            self.registry.plan_hits,
            self.registry.plan_misses,
            self.registry.plan_entries,
            self.registry.negative_hits,
        )
    }
}

/// Whether a *successful* response is of the kind `req` calls for. Error
/// frames and transport failures are judged elsewhere; this catches the
/// one thing that must never happen — a wrong-kind success (a frame
/// misread as an answer it isn't).
pub fn response_matches(req: &Request, resp: &Response) -> bool {
    matches!(
        (req, resp),
        (Request::Compile { .. }, Response::Compiled { .. })
            | (Request::Apply { .. }, Response::Document { .. })
            | (Request::Invert { .. }, Response::Document { .. })
            | (Request::Translate { .. }, Response::Translated { .. })
            | (Request::Stats, Response::Stats(_))
            | (Request::Evict { .. }, Response::Evicted { .. })
            | (_, Response::Error { .. })
    )
}

/// What replayed requests observed: latencies per op kind plus failure
/// counts. One per connection, merged into the run's summary.
struct Tally {
    latencies: Vec<Vec<u64>>,
    issued: u64,
    op_errors: u64,
    protocol_errors: u64,
    errors: ErrorTaxonomy,
    shed: u64,
    misinterpretations: u64,
    retry: Option<RetryStats>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            latencies: vec![Vec::new(); ServiceOp::ALL.len()],
            issued: 0,
            op_errors: 0,
            protocol_errors: 0,
            errors: ErrorTaxonomy::default(),
            shed: 0,
            misinterpretations: 0,
            retry: None,
        }
    }

    /// A timed request came back with `resp` after `started`.
    fn answered(&mut self, op: ServiceOp, req: &Request, resp: &Response, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        match resp {
            Response::Error { code, .. } => {
                self.op_errors += 1;
                self.errors.note_response(*code);
                if *code == ErrorCode::Overloaded {
                    self.shed += 1;
                }
            }
            resp if !response_matches(req, resp) => self.misinterpretations += 1,
            _ => {}
        }
        self.issued += 1;
        let slot = ServiceOp::ALL
            .iter()
            .position(|&o| o == op)
            .expect("in ALL");
        self.latencies[slot].push(nanos);
    }

    fn failed(&mut self, err: &ServiceError) {
        self.protocol_errors += 1;
        self.errors.note_transport(err);
    }

    fn merge(&mut self, other: Tally) {
        for (mine, theirs) in self.latencies.iter_mut().zip(other.latencies) {
            mine.extend(theirs);
        }
        self.issued += other.issued;
        self.op_errors += other.op_errors;
        self.protocol_errors += other.protocol_errors;
        self.errors.merge(&other.errors);
        self.shed += other.shed;
        self.misinterpretations += other.misinterpretations;
        self.retry = match (self.retry, other.retry) {
            (Some(a), Some(b)) => Some(RetryStats {
                attempts: a.attempts + b.attempts,
                retries: a.retries + b.retries,
                reconnects: a.reconnects + b.reconnects,
            }),
            (a, b) => a.or(b),
        };
    }
}

/// Replay the mix against the server at `addr`: `cfg.connections`
/// concurrent connections, each issuing `cfg.ops` timed requests with up
/// to `cfg.inflight` in flight.
///
/// Unless `cfg.cold` is set, every pair is compiled once (untimed) before
/// the timed section, so the digests measure the warm path. Latency is
/// submit→answer per request. Structured error answers are counted and
/// the replay continues; a transport failure is counted and ends that
/// connection's stream, unless the connections retry
/// ([`LoadConfig::retry`]), which re-dial and press on.
///
/// # Errors
/// The first transport failure of the untimed prewarm.
///
/// # Panics
/// On an empty `pairs`, a zero `connections` or `inflight`, or
/// `inflight > 1` together with `cold` or `retry`.
pub fn run(
    addr: SocketAddr,
    pairs: &[SchemaPair],
    cfg: &LoadConfig,
) -> Result<LoadSummary, ServiceError> {
    assert!(!pairs.is_empty(), "load generation needs at least one pair");
    assert!(cfg.connections >= 1, "need at least one connection");
    assert!(cfg.inflight >= 1, "need a window of at least one");
    assert!(
        cfg.inflight == 1 || !(cfg.cold || cfg.retry.is_some()),
        "cold and retrying replays run one request at a time"
    );
    // Untimed requests go over their own short-lived connection, retrying
    // like the replay's own connections do.
    let control = || RetryingClient::new(addr, cfg.client, cfg.retry.unwrap_or_default());
    if !cfg.cold {
        let mut warm = control()?;
        for p in pairs {
            warm.call(&compile_request(p))?;
        }
    }

    let t0 = Instant::now();
    let mut tally = Tally::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections)
            .map(|conn| scope.spawn(move || drive(addr, pairs, cfg, conn as u64)))
            .collect();
        for h in handles {
            tally.merge(h.join().expect("connection thread panicked"));
        }
    });
    let elapsed_nanos = t0.elapsed().as_nanos() as u64;

    let registry = match control().and_then(|mut c| c.call(&Request::Stats)) {
        Ok(Response::Stats(s)) => s,
        _ => StatsWire::default(),
    };
    let resolutions = registry.hits + registry.misses + registry.single_flight_waits;
    let hit_rate = if resolutions == 0 {
        0.0
    } else {
        registry.hits as f64 / resolutions as f64
    };
    let translations = registry.plan_hits + registry.plan_misses;
    let plan_hit_rate = if translations == 0 {
        0.0
    } else {
        registry.plan_hits as f64 / translations as f64
    };

    let mut all: Vec<u64> = tally.latencies.iter().flatten().copied().collect();
    let per_op = ServiceOp::ALL
        .iter()
        .zip(tally.latencies.iter_mut())
        .map(|(&op, lat)| (op, digest(lat)))
        .collect();
    Ok(LoadSummary {
        mix: cfg.mix.name().to_string(),
        ops: tally.issued,
        elapsed_nanos,
        qps: if elapsed_nanos == 0 {
            0.0
        } else {
            tally.issued as f64 * 1e9 / elapsed_nanos as f64
        },
        hit_rate,
        plan_hit_rate,
        protocol_errors: tally.protocol_errors,
        op_errors: tally.op_errors,
        errors: tally.errors,
        shed: tally.shed,
        misinterpretations: tally.misinterpretations,
        retry: tally.retry,
        per_op,
        registry,
        overall_digest: digest(&mut all),
    })
}

/// One connection's replay: its pre-sampled stream of timed requests,
/// each preceded by an untimed evict in `cold` mode.
fn drive(addr: SocketAddr, pairs: &[SchemaPair], cfg: &LoadConfig, conn: u64) -> Tally {
    let mut tally = Tally::new();
    // Pre-sample the whole stream so the timed loop does no generation
    // work; each connection gets an independent deterministic stream.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let stream: Vec<(ServiceOp, &SchemaPair, Request)> = (0..cfg.ops)
        .map(|_| {
            let pair = &pairs[rng.random_range(0..pairs.len())];
            let op = cfg.mix.sample(&mut rng);
            // A pair can lack payloads for this op (e.g. no translatable
            // queries survived setup); degrade to a cache touch.
            let req = build_request(pair, op, &mut rng, cfg.mix.zipf_queries())
                .unwrap_or_else(|| compile_request(pair));
            (op, pair, req)
        })
        .collect();
    let evict = |pair: &SchemaPair| Request::Evict {
        source_dtd: pair.source_text.clone(),
        target_dtd: pair.target_text.clone(),
    };

    if let Some(policy) = cfg.retry {
        let policy = RetryPolicy {
            seed: policy.seed ^ conn,
            ..policy
        };
        let mut client = match RetryingClient::new(addr, cfg.client, policy) {
            Ok(c) => c,
            Err(e) => {
                tally.failed(&e);
                return tally;
            }
        };
        for (op, pair, req) in &stream {
            if cfg.cold {
                if let Err(e) = client.call(&evict(pair)) {
                    tally.failed(&e);
                    continue;
                }
            }
            let started = Instant::now();
            match client.call(req) {
                Ok(resp) => tally.answered(*op, req, &resp, started),
                Err(e) => tally.failed(&e),
            }
        }
        tally.retry = Some(client.stats());
        return tally;
    }

    let mut client = match Client::connect_with(addr, &cfg.client) {
        Ok(c) => c,
        Err(e) => {
            tally.failed(&e);
            return tally;
        }
    };
    // Fill the window, then take the oldest answer; repeat.
    let mut window: VecDeque<(usize, Instant)> = VecDeque::with_capacity(cfg.inflight);
    let mut next = 0;
    loop {
        if next < stream.len() && window.len() < cfg.inflight {
            let (_, pair, req) = &stream[next];
            if cfg.cold {
                if let Err(e) = client.call(&evict(pair)) {
                    tally.failed(&e);
                    break;
                }
            }
            window.push_back((next, Instant::now()));
            if let Err(e) = client.submit(req) {
                tally.failed(&e);
                break;
            }
            next += 1;
            continue;
        }
        let Some((i, started)) = window.pop_front() else {
            break;
        };
        match client.recv() {
            Ok((_, resp)) => tally.answered(stream[i].0, &stream[i].2, &resp, started),
            Err(e) => {
                tally.failed(&e);
                break;
            }
        }
    }
    tally
}

fn compile_request(pair: &SchemaPair) -> Request {
    Request::Compile {
        source_dtd: pair.source_text.clone(),
        target_dtd: pair.target_text.clone(),
    }
}

fn digest(lat: &mut [u64]) -> Option<OpDigest> {
    if lat.is_empty() {
        return None;
    }
    lat.sort_unstable();
    let pick = |p: f64| lat[((lat.len() - 1) as f64 * p).round() as usize];
    Some(OpDigest {
        count: lat.len() as u64,
        p50_nanos: pick(0.50),
        p99_nanos: pick(0.99),
    })
}

fn build_request(
    pair: &SchemaPair,
    op: ServiceOp,
    rng: &mut StdRng,
    zipf_queries: bool,
) -> Option<Request> {
    let (s, t) = (pair.source_text.clone(), pair.target_text.clone());
    Some(match op {
        ServiceOp::Compile => Request::Compile {
            source_dtd: s,
            target_dtd: t,
        },
        ServiceOp::Apply => Request::Apply {
            source_dtd: s,
            target_dtd: t,
            xml: pick(&pair.docs, rng)?.clone(),
        },
        ServiceOp::Invert => Request::Invert {
            source_dtd: s,
            target_dtd: t,
            xml: pick(&pair.target_docs, rng)?.clone(),
        },
        ServiceOp::Translate => Request::Translate {
            source_dtd: s,
            target_dtd: t,
            query: if zipf_queries {
                pick_zipf(&pair.queries, rng)?.clone()
            } else {
                pick(&pair.queries, rng)?.clone()
            },
        },
        ServiceOp::Stats => Request::Stats,
        ServiceOp::Evict => Request::Evict {
            source_dtd: s,
            target_dtd: t,
        },
    })
}

fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.random_range(0..items.len())])
    }
}

/// Zipf-ish choice: the i-th item is drawn with probability ∝ 1/(i+1)
/// (fixed-point harmonic weights), so early items dominate the stream.
fn pick_zipf<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if items.is_empty() {
        return None;
    }
    const SCALE: u32 = 840; // divisible by 1..=8, exact for small lists
    let weights: Vec<u32> = (0..items.len()).map(|i| SCALE / (i as u32 + 1)).collect();
    let total: u32 = weights.iter().sum();
    let mut roll = rng.random_range(0..total);
    for (item, &w) in items.iter().zip(&weights) {
        if roll < w {
            return Some(item);
        }
        roll -= w;
    }
    unreachable!("roll exceeds total weight")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{EmbeddingRegistry, RegistryConfig};
    use crate::{Server, ServerConfig, ServerHandle};
    use std::sync::Arc;

    fn spawn_server() -> ServerHandle {
        let registry = Arc::new(EmbeddingRegistry::new(RegistryConfig {
            capacity: 8,
            discovery: loadgen_discovery(),
            ..RegistryConfig::default()
        }));
        Server::bind(("127.0.0.1", 0), registry, ServerConfig::default()).unwrap()
    }

    #[test]
    fn pairs_are_embeddable_with_payloads() {
        let pairs = build_pairs(3, 7);
        assert_eq!(pairs.len(), 3);
        for p in &pairs {
            assert!(!p.docs.is_empty(), "{} has no documents", p.name);
            assert_eq!(p.docs.len(), p.target_docs.len());
            // Each pair must compile through the registry path too.
            let reg = EmbeddingRegistry::new(RegistryConfig {
                capacity: 2,
                discovery: loadgen_discovery(),
                ..RegistryConfig::default()
            });
            reg.get_or_compile(&p.source_text, &p.target_text)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn replay_is_deterministic_and_clean() {
        let pairs = build_pairs(2, 11);
        let server = spawn_server();
        let cfg = LoadConfig {
            mix: TrafficMix::mixed(),
            ops: 60,
            seed: 5,
            ..LoadConfig::default()
        };
        let summary = run(server.addr(), &pairs, &cfg).unwrap();
        assert_eq!(summary.ops, 60);
        assert_eq!(summary.protocol_errors, 0);
        assert_eq!(summary.op_errors, 0, "{}", summary.to_json());
        assert!(summary.qps > 0.0);
        assert_eq!(summary.misinterpretations, 0);
        assert_eq!(summary.shed, 0);
        assert!(summary.retry.is_none(), "plain connections never retry");
        let json = summary.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"mix\":\"mixed\""), "{json}");
        assert!(json.contains("\"plan_hit_rate\""), "{json}");
        assert!(json.contains("\"errors\":{\"overloaded\":0"), "{json}");
        assert!(json.contains("\"retry\":null"), "{json}");
        assert!(json.contains("\"negative_hits\":0"), "{json}");
    }

    #[test]
    fn response_matching_rejects_wrong_kind_successes() {
        let compile = Request::Compile {
            source_dtd: "s".into(),
            target_dtd: "t".into(),
        };
        let compiled = Response::Compiled {
            source_hash: "a".into(),
            target_hash: "b".into(),
            size: 1,
        };
        let doc = Response::Document { xml: "<r/>".into() };
        assert!(response_matches(&compile, &compiled));
        assert!(!response_matches(&compile, &doc));
        assert!(!response_matches(&Request::Stats, &compiled));
        // Error frames are never misinterpretations — they are counted in
        // the taxonomy instead.
        let err = Response::Error {
            code: ErrorCode::Overloaded,
            message: String::new(),
        };
        assert!(response_matches(&compile, &err));
        assert!(response_matches(&Request::Stats, &err));
    }

    #[test]
    fn repeated_query_mix_mostly_hits_the_plan_cache() {
        let pairs = build_pairs(2, 11);
        let server = spawn_server();
        let cfg = LoadConfig {
            mix: TrafficMix::repeated_query(),
            ops: 300,
            seed: 5,
            ..LoadConfig::default()
        };
        let summary = run(server.addr(), &pairs, &cfg).unwrap();
        assert_eq!(summary.protocol_errors + summary.op_errors, 0);
        // Two pairs hold at most 12 distinct queries between them, so with
        // ~280 translates nearly all land on cached plans.
        assert!(
            summary.plan_hit_rate >= 0.90,
            "plan hit rate {} too low: {}",
            summary.plan_hit_rate,
            summary.to_json()
        );
        assert!(summary.registry.plan_hits > summary.registry.plan_misses * 5);
    }
}
