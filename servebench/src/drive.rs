//! The served stack (in-process `Server` over loopback TCP, blocking
//! `Client`s) and the untraced closed loop.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xse_service::loadgen::loadgen_discovery;
use xse_service::{Client, EmbeddingRegistry, RegistryConfig, Server, ServerConfig, ServerHandle};

use crate::fixture::{Fixture, Op, Stream};
use crate::stats::Histogram;

/// Blocking connections, one closed-loop caller each: every caller of
/// `Client::call` waits for its reply before sending the next request.
pub const CONNECTIONS: usize = 2;

/// Length of one measured episode; see [`measure`].
const EPISODE: Duration = Duration::from_millis(250);

pub struct Served {
    pub registry: Arc<EmbeddingRegistry>,
    pub server: ServerHandle,
    pub clients: Vec<Client>,
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Close the connections first so the server's drain finds no peer
    /// still attached.
    pub fn shutdown(mut self) {
        self.clients.clear();
        self.server.shutdown();
    }
}

fn registry_config(fx: &Fixture) -> RegistryConfig {
    let defaults = RegistryConfig::default();
    RegistryConfig {
        discovery: loadgen_discovery(),
        capacity: fx.workload.registry_capacity().unwrap_or(defaults.capacity),
        ..defaults
    }
}

/// Set-up as a user pays it: bind a server over a fresh registry, connect
/// the callers, and compile the workload's set-up pairs over the wire.
/// Every compile answer is checked against the oracle.
pub fn setup(fx: &Fixture) -> Result<Served, String> {
    let registry = Arc::new(EmbeddingRegistry::new(registry_config(fx)));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut served = Served {
        registry,
        server,
        clients,
    };
    for &c in &fx.setup {
        let call = &fx.calls[c];
        match served.clients[0].call(&call.req) {
            Ok(resp) if call.expect.matches(&resp) => {}
            Ok(resp) => return Err(format!("set-up compile answered {resp:?}")),
            Err(e) => return Err(format!("set-up compile: {e}")),
        }
    }
    Ok(served)
}

/// What one closed-loop phase observed.
pub struct LoopResult {
    /// Latencies of the answered requests, per op (`Op::index`), and
    /// over all ops. Histograms keep memory fixed however many requests
    /// a run completes, so `peak_rss_mb` does not follow throughput.
    pub lat: [Histogram; 4],
    pub all: Histogram,
    pub attempted: u64,
    pub failed: u64,
    /// Source plus target nodes of the `apply`/`invert` calls completed.
    pub nodes: u64,
    /// Per connection, in order: requests answered correctly, and the
    /// time from the phase's start to that caller's last answer, summed
    /// over episodes.
    pub callers: Vec<(u64, Duration)>,
    /// The first few mismatches, for the report.
    pub failures: Vec<String>,
}

impl LoopResult {
    pub fn empty() -> LoopResult {
        LoopResult {
            lat: std::array::from_fn(|_| Histogram::new()),
            all: Histogram::new(),
            attempted: 0,
            failed: 0,
            nodes: 0,
            callers: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Fold in a later episode of the same connections: each caller's
    /// counts and time add up.
    pub fn append(&mut self, mut other: LoopResult) {
        let mut callers = std::mem::take(&mut other.callers);
        for (mine, theirs) in callers.iter_mut().zip(&self.callers) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
        self.merge(other);
        self.callers = callers;
    }

    fn merge(&mut self, other: LoopResult) {
        for (mine, theirs) in self.lat.iter_mut().zip(&other.lat) {
            mine.merge(theirs);
        }
        self.all.merge(&other.all);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.nodes += other.nodes;
        self.callers.extend(other.callers);
        self.failures.extend(other.failures);
        self.failures.truncate(5);
    }

    pub fn completed(&self) -> u64 {
        self.all.count()
    }

    /// Requests answered correctly per second: each caller's own rate,
    /// summed. A caller's time ends at its own last answer, so the end of
    /// an episode, where one caller waits for the other's last (possibly
    /// stalled) call, costs nothing.
    pub fn per_second(&self) -> f64 {
        self.callers
            .iter()
            .map(|&(n, t)| n as f64 / t.as_secs_f64())
            .sum()
    }
}

/// Run every connection's stream for `dur`, one thread per connection,
/// checking each answer. A transport failure counts as a failed request
/// and the connection is re-opened.
pub fn closed_loop(
    fx: &Fixture,
    served: &mut Served,
    streams: &mut [Stream<'_>],
    dur: Duration,
) -> LoopResult {
    let addr = served.addr();
    let start = Instant::now();
    let deadline = start + dur;
    let mut total = LoopResult::empty();
    std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(client, stream)| {
                s.spawn(move || {
                    let mut r = LoopResult::empty();
                    let mut last;
                    loop {
                        let idx = stream.next().expect("streams are endless");
                        let call = &fx.calls[idx];
                        let t0 = Instant::now();
                        let resp = client.call(&call.req);
                        let t1 = Instant::now();
                        last = t1;
                        r.attempted += 1;
                        match resp {
                            Ok(resp) if call.expect.matches(&resp) => {
                                let ns = (t1 - t0).as_nanos() as u64;
                                r.lat[call.op.index()].record(ns);
                                r.all.record(ns);
                                if matches!(call.op, Op::Apply | Op::Invert) {
                                    r.nodes += call.nodes;
                                }
                            }
                            other => {
                                r.failed += 1;
                                if r.failures.len() < 5 {
                                    let what: String =
                                        format!("{other:?}").chars().take(300).collect();
                                    r.failures.push(format!(
                                        "{} on {}: {what}",
                                        call.op.name(),
                                        fx.pairs[call.pair].name
                                    ));
                                }
                                if other.is_err() {
                                    match Client::connect(addr) {
                                        Ok(c) => *client = c,
                                        Err(_) => break,
                                    }
                                }
                            }
                        }
                        if t1 >= deadline {
                            break;
                        }
                    }
                    r.callers = vec![(r.completed(), last - start)];
                    r
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("closed-loop thread panicked"));
        }
    });
    total
}

/// Measure for `dur` in quarter-second episodes. Each episode opens
/// fresh connections and starts fresh caller threads, so the server hands
/// them to workers anew and the scheduler places the threads anew. Left
/// running, a process tends to keep the placement it settled into at the
/// start, and on a 2-vCPU virtual machine the throughput of single
/// episodes spreads by about a fifth (standard deviation over mean) on
/// `translate-hot`; many short episodes average over that instead of
/// drawing one placement per run. The
/// streams run on across episodes, so the requests are those of one
/// continuous run; reconnecting happens between episodes, off the clock.
pub fn measure(
    fx: &Fixture,
    served: &mut Served,
    streams: &mut [Stream<'_>],
    dur: Duration,
) -> Result<LoopResult, String> {
    let episodes = dur.as_secs_f64() / EPISODE.as_secs_f64();
    let episodes = (episodes.ceil() as u32).max(1);
    let mut total = LoopResult::empty();
    for _ in 0..episodes {
        let addr = served.addr();
        served.clients = (0..CONNECTIONS)
            .map(|_| Client::connect(addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        total.append(closed_loop(fx, served, streams, dur / episodes));
    }
    Ok(total)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// CPU time the hypervisor gave to other guests, and all CPU time, in
/// clock ticks since boot, from the first line of `/proc/stat`.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}
