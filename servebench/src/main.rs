//! Closed-loop TCP benchmark of the embedding service.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload <translate-hot|doc-migrate|schema-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a traced replay of the same request stream. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any answer that differs from the
//! oracle makes the exit code non-zero. See `NOTES.md` for the workloads,
//! the metric definitions, and what each per-layer metric should move.

mod drive;
mod fixture;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use drive::{
    closed_loop, cpu_steal_ticks, measure, peak_rss_mb, setup, LoopResult, Served, CONNECTIONS,
};
use fixture::{Fixture, Op, Workload};
use stats::{percentile, result_json, Digest, Metric};
use trace::{request_views, traced_replay, Name, TraceResult};
use xse_service::RegistryStats;

/// Set-ups per run, spread over the measured traffic; `setup_s` is
/// their median.
const SETUP_REPS: usize = 21;

/// Untimed traffic after set-up, so caches reach their steady state
/// before the clock starts.
const WARMUP: Duration = Duration::from_secs(1);

/// Longest traced replay: long enough for `doc-migrate` to trace over a
/// thousand requests. The rest of `--seconds` runs untraced.
const TRACED_MAX: Duration = Duration::from_secs(4);

/// A call whose wire overhead exceeds this is counted as stalled.
const STALL_NS: i64 = 20_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and prints the report; `Ok(false)` when any answer
/// differed from the oracle.
fn run(args: &Args) -> Result<bool, String> {
    let fx = Fixture::build(args.workload, args.seed);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "servebench workload={} seed={} seconds={} trace={} connections={CONNECTIONS} cores={cores}",
        fx.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "inputs: {} pairs, {} distinct requests, fingerprint {:016x}",
        fx.pairs.len(),
        fx.calls.len(),
        fx.fingerprint(CONNECTIONS)
    );
    let dur = Duration::from_secs(args.seconds);
    let (correct, attempted, failed, metrics) = if args.trace {
        traced(&fx, dur)?
    } else {
        untraced(&fx, dur)?
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Bind, warm up, and return the stack with its streams positioned
/// after the warm-up.
fn warmed(fx: &Fixture) -> Result<(Served, Vec<fixture::Stream<'_>>, LoopResult), String> {
    let mut served = setup(fx)?;
    let mut streams: Vec<_> = (0..CONNECTIONS).map(|c| fx.stream(c)).collect();
    let warm = closed_loop(fx, &mut served, &mut streams, WARMUP);
    Ok((served, streams, warm))
}

fn report_failures(r: &LoopResult) {
    for f in &r.failures {
        let cut: String = f.chars().take(300).collect();
        println!("MISMATCH {cut}");
    }
}

type Outcome = (bool, u64, u64, Vec<Metric>);

fn untraced(fx: &Fixture, dur: Duration) -> Result<Outcome, String> {
    // The set-ups are spread over the run, one before each slice of the
    // measured traffic, so their median samples the machine's speed over
    // the whole run rather than over its first fraction of a second.
    let (mut served, mut streams, warm) = warmed(fx)?;
    let steal_before = cpu_steal_ticks();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut r = LoopResult::empty();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let extra = setup(fx)?;
        setup_times.push(t0.elapsed().as_nanos() as u64);
        extra.shutdown();
        let slice = measure(fx, &mut served, &mut streams, dur / SETUP_REPS as u32)?;
        r.append(slice);
    }
    served.shutdown();
    report_failures(&warm);
    report_failures(&r);
    // A slow run on a shared virtual machine often shows here: the share
    // of CPU time the hypervisor gave to other guests while it ran.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, cpu_steal_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!(
            "machine: {:.1}% of CPU time stolen during the run",
            share * 100.0
        );
    }
    setup_times.sort_unstable();
    let setup_s = percentile(&setup_times, 0.5) as f64 / 1e9;

    let per_second = r.per_second();
    let overall = Digest::of(&r.all).ok_or("no request completed")?;
    let ok_share = r.completed() as f64 / r.attempted as f64;
    let e2e = vec![
        Metric::new("setup_s", setup_s, "s").with_samples(SETUP_REPS),
        Metric::new("ops_per_s", per_second, "1/s"),
        Metric::new("latency_p50_us", overall.p50_us, "us").with_samples(overall.count as usize),
        Metric::new("latency_p99_us", overall.p99_us, "us")
            .with_samples(overall.count as usize)
            .with_note(format!("{} beyond p99", overall.beyond_p99())),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    println!("end-to-end (in the result object):");
    for m in &e2e {
        println!("{}", m.line());
    }
    println!("end-to-end, per op class (printed only):");
    println!("{}", Metric::new("ok_share", ok_share, "ratio").line());
    for op in Op::ALL {
        match Digest::of(&r.lat[op.index()]) {
            Some(d) => {
                println!(
                    "{}",
                    Metric::new(format!("{}_p50_us", op.name()), d.p50_us, "us")
                        .with_samples(d.count as usize)
                        .line()
                );
                println!(
                    "{}",
                    Metric::new(format!("{}_p99_us", op.name()), d.p99_us, "us")
                        .with_samples(d.count as usize)
                        .with_note(format!("{} beyond p99", d.beyond_p99()))
                        .line()
                );
            }
            None => println!("  {:<34} not in this workload", format!("{}_*", op.name())),
        }
    }
    if fx.workload == Workload::DocMigrate {
        let nodes_per_op = r.nodes as f64 / r.completed() as f64;
        let m = Metric::new("migrate_nodes_per_s", nodes_per_op * per_second, "nodes/s");
        println!("{}", m.line());
    }
    let failed = r.failed + warm.failed;
    Ok((failed == 0, r.attempted + warm.attempted, failed, e2e))
}

fn traced(fx: &Fixture, dur: Duration) -> Result<Outcome, String> {
    // An untraced part and a traced part, each on a fresh stack replaying
    // the stream from its start, so the two differ only in tracing.
    let traced_for = (dur / 2).min(TRACED_MAX);
    let (mut served, mut streams, warm_a) = warmed(fx)?;
    let plain = measure(fx, &mut served, &mut streams, dur - traced_for)?;
    let plain_stats = served.registry.stats();
    served.shutdown();
    report_failures(&warm_a);
    report_failures(&plain);

    let (mut served, mut streams, warm_b) = warmed(fx)?;
    report_failures(&warm_b);
    let t = traced_replay(fx, &mut served, &mut streams, traced_for);
    let traced_stats = served.registry.stats();
    served.shutdown();

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.tsv", fx.workload.name()));
    trace::write_spans(&path, &t.spans).map_err(|e| format!("writing spans: {e}"))?;
    println!("{} spans written to {}", t.spans.len(), path.display());

    let plain_rate = plain.per_second();
    let traced_rate = t.completed as f64 / t.elapsed.as_secs_f64();
    let metrics = per_layer(
        &t,
        &plain_stats,
        &traced_stats,
        plain_rate / traced_rate - 1.0,
    );
    println!("per-layer (traced replay; 'probe' = measured off this workload's request path):");
    for m in &metrics {
        println!("{}", m.line());
    }
    let failed = warm_a.failed + plain.failed + warm_b.failed + t.failed;
    let attempted = warm_a.attempted + plain.attempted + warm_b.attempted + t.attempted;
    if t.failed > 0 {
        println!(
            "MISMATCH {} traced requests differed from the oracle",
            t.failed
        );
    }
    Ok((failed == 0, attempted, failed, metrics))
}

/// Span durations (or sizes) by name: from the request stream when it
/// has any, else from the probe, with the source as the note.
fn pick(t: &TraceResult, name: Name, f: impl Fn(&trace::Span) -> u64) -> (Vec<u64>, &'static str) {
    let path: Vec<u64> = t
        .spans
        .iter()
        .filter(|s| s.name == name && !s.probe)
        .map(&f)
        .collect();
    if !path.is_empty() {
        return (path, "path");
    }
    let probe = t
        .spans
        .iter()
        .filter(|s| s.name == name && s.probe)
        .map(&f)
        .collect();
    (probe, "probe")
}

/// p50 (or another quantile) of a span's durations in microseconds.
fn us(t: &TraceResult, metric: &str, name: Name, q: f64) -> Metric {
    let (mut v, src) = pick(t, name, trace::Span::ns);
    v.sort_unstable();
    let value = if v.is_empty() {
        f64::NAN
    } else {
        percentile(&v, q) as f64 / 1e3
    };
    Metric::new(metric, value, "us")
        .with_samples(v.len())
        .with_note(src)
}

/// Work per second of busy time over a span's samples.
fn rate(t: &TraceResult, metric: &str, name: Name, unit: &'static str) -> Metric {
    let (work, src) = pick(t, name, |s| s.work);
    let (ns, _) = pick(t, name, trace::Span::ns);
    let value = work.iter().sum::<u64>() as f64 / (ns.iter().sum::<u64>() as f64 / 1e9);
    Metric::new(metric, value, unit)
        .with_samples(ns.len())
        .with_note(src)
}

fn per_layer(
    t: &TraceResult,
    plain: &RegistryStats,
    traced: &RegistryStats,
    overhead_share: f64,
) -> Vec<Metric> {
    let wire = request_views(&t.spans);
    let n = wire.len().max(1) as f64;
    // A plan miss paid inside the stages is not paid again by the
    // `client.call` after them, so those requests would read low.
    let mut overhead: Vec<u64> = wire
        .iter()
        .filter(|w| !w.plan_miss)
        .map(|w| w.overhead_ns.max(0) as u64)
        .collect();
    overhead.sort_unstable();
    let mut handle: Vec<u64> = wire.iter().map(|w| w.handle_ns).collect();
    handle.sort_unstable();
    let q = |v: &[u64], q: f64| {
        if v.is_empty() {
            f64::NAN
        } else {
            percentile(v, q) as f64 / 1e3
        }
    };
    let (mut req_bytes, _) = pick(t, Name::ProtoDecode, |s| s.work);
    req_bytes.sort_unstable();
    let (mut resp_bytes, _) = pick(t, Name::ProtoEncode, |s| s.work);
    resp_bytes.sort_unstable();
    let discovery: Vec<&trace::Span> = t
        .spans
        .iter()
        .filter(|s| s.name == Name::Discovery)
        .collect();
    let stage_ns: u64 = wire.iter().map(|w| w.stage_ns).sum();
    let children_ns: u64 = wire.iter().map(|w| w.children_ns).sum();
    // The plan ratio comes from the untraced run when it translated
    // anything, else from the traced registry after the probe.
    let (plan_ratio, plan_src) = if plain.plan_hits + plain.plan_misses > 0 {
        (plain.plan_hit_rate(), "path")
    } else {
        (traced.plan_hit_rate(), "probe")
    };
    let counter = |name: &str, v: u64| {
        Metric::new(name, v as f64, "count").with_note("untraced registry stats()")
    };
    vec![
        Metric::new("proto.req_bytes_p50", percentile_or_nan(&req_bytes), "B")
            .with_samples(req_bytes.len()),
        Metric::new("proto.resp_bytes_p50", percentile_or_nan(&resp_bytes), "B")
            .with_samples(resp_bytes.len()),
        Metric::new(
            "proto.frames_over_8k_share",
            wire.iter().filter(|w| w.big_frame).count() as f64 / n,
            "ratio",
        )
        .with_samples(wire.len()),
        Metric::new(
            "proto.frames_8k_to_64k_share",
            wire.iter().filter(|w| w.stall_prone).count() as f64 / n,
            "ratio",
        )
        .with_samples(wire.len())
        .with_note("over the write buffer, under one segment"),
        us(t, "proto.decode_us_p50", Name::ProtoDecode, 0.5),
        us(t, "proto.encode_us_p50", Name::ProtoEncode, 0.5),
        Metric::new("wire.overhead_us_p50", q(&overhead, 0.5), "us")
            .with_samples(overhead.len())
            .with_note("requests without a plan miss"),
        Metric::new("wire.overhead_us_p99", q(&overhead, 0.99), "us")
            .with_samples(overhead.len())
            .with_note("requests without a plan miss"),
        Metric::new(
            "wire.stalled_share",
            wire.iter().filter(|w| w.overhead_ns > STALL_NS).count() as f64 / n,
            "ratio",
        )
        .with_samples(wire.len()),
        us(t, "registry.lookup_us_p50", Name::RegistryLookup, 0.5),
        us(t, "registry.miss_us_p50", Name::RegistryMiss, 0.5),
        Metric::new("registry.hit_ratio", plain.hit_rate(), "ratio")
            .with_note("untraced registry stats()"),
        counter("registry.compiles", plain.compiles),
        Metric::new(
            "registry.compile_busy_s",
            plain.compile_nanos as f64 / 1e9,
            "s",
        )
        .with_note("untraced registry stats()"),
        counter("registry.single_flight_waits", plain.single_flight_waits),
        counter("registry.evictions", plain.evictions),
        counter("registry.negative_hits", plain.negative_hits),
        us(t, "discovery.compile_us_p50", Name::Discovery, 0.5),
        us(t, "discovery.compile_us_p99", Name::Discovery, 0.99),
        Metric::new(
            "discovery.attempts_per_compile",
            discovery.iter().map(|s| s.work).sum::<u64>() as f64 / discovery.len().max(1) as f64,
            "count",
        )
        .with_samples(discovery.len())
        .with_note("probe"),
        Metric::new(
            "discovery.found_ratio",
            t.found.iter().filter(|&&f| f).count() as f64 / t.found.len().max(1) as f64,
            "ratio",
        )
        .with_samples(t.found.len())
        .with_note("probe"),
        us(t, "dtd.parse_us_p50", Name::DtdParse, 0.5),
        us(t, "dtd.validate_us_p50", Name::DtdValidate, 0.5),
        us(t, "xmltree.parse_us_p50", Name::XmlParse, 0.5),
        rate(t, "xmltree.parse_nodes_per_s", Name::XmlParse, "nodes/s"),
        us(t, "xmltree.serialize_us_p50", Name::XmlSerialize, 0.5),
        us(t, "core.apply_us_p50", Name::CoreApply, 0.5),
        rate(t, "core.apply_nodes_per_s", Name::CoreApply, "nodes/s"),
        us(t, "core.invert_us_p50", Name::CoreInvert, 0.5),
        us(t, "core.translate_us_p50", Name::CoreTranslate, 0.5),
        us(t, "core.plan_compile_us_p50", Name::PlanCompile, 0.5),
        Metric::new("core.plan_hit_ratio", plan_ratio, "ratio").with_note(plan_src),
        us(t, "rxpath.parse_query_us_p50", Name::QueryParse, 0.5),
        Metric::new("service.handle_us_p50", q(&handle, 0.5), "us").with_samples(handle.len()),
        Metric::new("service.handle_us_p99", q(&handle, 0.99), "us").with_samples(handle.len()),
        Metric::new(
            "trace.coverage",
            children_ns as f64 / stage_ns.max(1) as f64,
            "ratio",
        )
        .with_samples(wire.len())
        .with_note("timed child calls over the stages span"),
        Metric::new("trace.overhead_share", overhead_share, "ratio")
            .with_note("untraced ops/s over traced ops/s, minus 1"),
    ]
}

fn percentile_or_nan(sorted: &[u64]) -> f64 {
    if sorted.is_empty() {
        f64::NAN
    } else {
        percentile(sorted, 0.5) as f64
    }
}
