//! Pipelining end-to-end: answers in request order, each on its own id;
//! out-of-order or unknown ids rejected as protocol errors; per-request
//! error isolation mid-pipeline; blocking and pipelining callers on one
//! server; and the server's flush rule.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xse_service::loadgen::{self, loadgen_discovery};
use xse_service::proto::{read_frame, write_frame};
use xse_service::{
    Client, EmbeddingRegistry, ErrorCode, RegistryConfig, Request, Response, Server, ServerConfig,
    ServerHandle, ServiceError,
};

fn wrap_pair() -> (String, String) {
    let s1 =
        "<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (c*)>\n<!ELEMENT c (#PCDATA)>";
    let s2 = "<!ELEMENT r (x, y)>\n<!ELEMENT x (a)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT y (w)>\n<!ELEMENT w (c2*)>\n<!ELEMENT c2 (c)>\n<!ELEMENT c (#PCDATA)>";
    (s1.to_string(), s2.to_string())
}

fn spawn_server(workers: usize) -> ServerHandle {
    Server::bind(
        ("127.0.0.1", 0),
        Arc::new(EmbeddingRegistry::new(RegistryConfig {
            capacity: 16,
            discovery: loadgen_discovery(),
            ..RegistryConfig::default()
        })),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// A similarity hook that sleeps before delegating, making every compile
/// take ≥ 150 ms — long enough that the requests pipelined behind it are
/// provably waiting while it runs.
fn slow_sim(s: &xse_dtd::Dtd, t: &xse_dtd::Dtd) -> xse_core::SimilarityMatrix {
    std::thread::sleep(Duration::from_millis(150));
    xse_service::registry::default_similarity(s, t)
}

fn spawn_slow_compile_server(config: ServerConfig) -> ServerHandle {
    Server::bind(
        ("127.0.0.1", 0),
        Arc::new(EmbeddingRegistry::new(RegistryConfig {
            capacity: 16,
            discovery: loadgen_discovery(),
            sim: slow_sim,
            ..RegistryConfig::default()
        })),
        config,
    )
    .expect("bind ephemeral port")
}

/// A scripted stand-in server: accepts one connection, reads `n` request
/// frames, then answers them with caller-chosen ids and payloads, in a
/// caller-chosen order. This pins the *client-side* pipelining contract
/// without depending on real scheduling.
fn scripted_peer(
    n: usize,
    respond: impl FnOnce(Vec<(u32, Vec<u8>)>) -> Vec<(u32, Response)> + Send + 'static,
) -> std::net::SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut seen = Vec::new();
        for _ in 0..n {
            seen.push(read_frame(&mut reader).unwrap());
        }
        for (id, resp) in respond(seen) {
            write_frame(&mut writer, id, &resp.encode()).unwrap();
        }
        writer.flush().unwrap();
    });
    addr
}

/// Answers must come back in request order: a peer answering (3, 1, 2)
/// for submissions (1, 2, 3) is caught at the first answer as a protocol
/// violation, never misattributed.
#[test]
fn shuffled_responses_are_a_protocol_error() {
    let addr = scripted_peer(3, |seen| {
        assert_eq!(
            seen.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "client must number requests 1, 2, 3"
        );
        vec![
            (3, Response::Stats(xse_service::proto::StatsWire::default())),
            (1, Response::Evicted { existed: false }),
            (2, Response::Stats(xse_service::proto::StatsWire::default())),
        ]
    });

    let mut client = Client::connect(addr).unwrap();
    let ids: Vec<u32> = (0..3)
        .map(|_| client.submit(&Request::Stats).unwrap())
        .collect();
    assert_eq!(ids, vec![1, 2, 3]);
    assert_eq!(client.in_flight(), 3);
    let err = client.recv().unwrap_err();
    assert!(
        matches!(&err, ServiceError::Protocol(m) if m.contains('3') && m.contains('1')),
        "an answer overtaking its elders must be a protocol error: {err:?}"
    );
}

/// A `Timeout` error frame mid-pipeline fails only its own request: the
/// answers around it land on their own ids.
#[test]
fn mid_pipeline_timeout_frame_isolates_its_request() {
    let addr = scripted_peer(3, |_| {
        vec![
            (1, Response::Evicted { existed: false }),
            (
                2,
                Response::Error {
                    code: ErrorCode::Timeout,
                    message: "budget exceeded".into(),
                },
            ),
            (3, Response::Stats(xse_service::proto::StatsWire::default())),
        ]
    });
    let mut client = Client::connect(addr).unwrap();
    let (s, t) = wrap_pair();
    let reqs = [
        Request::Evict {
            source_dtd: s,
            target_dtd: t,
        },
        Request::Stats,
        Request::Stats,
    ];
    let answers = client.call_pipelined(&reqs, 3).unwrap();
    assert!(
        matches!(answers[0], Response::Evicted { existed: false }),
        "{answers:?}"
    );
    assert!(
        matches!(
            answers[1],
            Response::Error {
                code: ErrorCode::Timeout,
                ..
            }
        ),
        "{answers:?}"
    );
    assert!(matches!(answers[2], Response::Stats(_)), "{answers:?}");
    assert_eq!(client.in_flight(), 0);
}

/// An unknown response id is a protocol violation, surfaced as a typed
/// error instead of being silently dropped or misattributed.
#[test]
fn unknown_response_id_is_a_protocol_error() {
    let addr = scripted_peer(1, |_| vec![(77, Response::Evicted { existed: true })]);
    let mut client = Client::connect(addr).unwrap();
    client.submit(&Request::Stats).unwrap();
    let err = client.recv().unwrap_err();
    assert!(
        format!("{err}").contains("77"),
        "error should name the bogus id: {err}"
    );
}

/// Against the real server: eight requests in flight on one connection
/// are answered in request order, each on its own id. The first request
/// is a compile whose similarity hook *sleeps* 150 ms, so the seven
/// stats calls behind it provably wait for it: it is answered first.
#[test]
fn eight_in_flight_are_answered_in_request_order() {
    let server = spawn_slow_compile_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let (s, t) = wrap_pair();
    let mut client = Client::connect(server.addr()).unwrap();
    let compile_id = client
        .submit(&Request::Compile {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
        })
        .unwrap();
    let stats_ids: Vec<u32> = (0..7)
        .map(|_| client.submit(&Request::Stats).unwrap())
        .collect();
    assert_eq!(client.in_flight(), 8);

    let (id, resp) = client.recv().unwrap();
    assert_eq!(id, compile_id, "the sleeping compile is answered first");
    assert!(matches!(resp, Response::Compiled { .. }), "{resp:?}");
    for want in stats_ids {
        let (id, resp) = client.recv().unwrap();
        assert_eq!(id, want);
        // Every stats call ran after the compile finished.
        assert!(
            matches!(resp, Response::Stats(w) if w.compiles == 1),
            "{resp:?}"
        );
    }
    assert_eq!(client.in_flight(), 0);
}

/// Real-server Timeout isolation: with a 40 ms request budget, the
/// sleeping compile (150 ms) is answered with a `Timeout` error frame on
/// its own id while the stats calls sharing the pipeline all succeed,
/// and the connection remains usable afterwards.
#[test]
fn mid_pipeline_timeout_fails_only_the_slow_request() {
    let server = spawn_slow_compile_server(ServerConfig {
        workers: 1,
        request_budget: Some(Duration::from_millis(40)),
        ..ServerConfig::default()
    });
    let (s, t) = wrap_pair();
    let mut client = Client::connect(server.addr()).unwrap();
    let compile_id = client
        .submit(&Request::Compile {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
        })
        .unwrap();
    let stats_ids: Vec<u32> = (0..3)
        .map(|_| client.submit(&Request::Stats).unwrap())
        .collect();

    let (id, resp) = client.recv().unwrap();
    assert_eq!(id, compile_id);
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Timeout,
                ..
            }
        ),
        "the over-budget compile must time out: {resp:?}"
    );
    for want in stats_ids {
        let (id, resp) = client.recv().unwrap();
        assert_eq!(id, want);
        assert!(
            matches!(resp, Response::Stats(_)),
            "a neighbor of the timed-out request failed: {resp:?}"
        );
    }

    // The timeout poisoned neither the connection nor the server.
    let more = client.call_pipelined(&[Request::Stats], 1).unwrap();
    assert!(matches!(more[0], Response::Stats(_)));
}

/// A deterministic mid-pipeline application error (bad query) is answered
/// on its own id; the requests around it succeed and the connection
/// stays usable.
#[test]
fn mid_pipeline_bad_query_fails_only_its_own_request() {
    let server = spawn_server(1);
    let (s, t) = wrap_pair();
    let mut client = Client::connect(server.addr()).unwrap();

    let reqs = vec![
        Request::Compile {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
        },
        Request::Translate {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
            query: "](((".into(),
        },
        Request::Translate {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
            query: "b/c".into(),
        },
        Request::Stats,
    ];
    let responses = client.call_pipelined(&reqs, 4).unwrap();
    assert_eq!(responses.len(), 4);
    assert!(
        matches!(responses[0], Response::Compiled { .. }),
        "{:?}",
        responses[0]
    );
    assert!(
        matches!(
            responses[1],
            Response::Error {
                code: ErrorCode::BadQuery,
                ..
            }
        ),
        "{:?}",
        responses[1]
    );
    assert!(
        matches!(responses[2], Response::Translated { .. }),
        "{:?}",
        responses[2]
    );
    assert!(
        matches!(responses[3], Response::Stats(_)),
        "{:?}",
        responses[3]
    );

    // The connection survived the mid-pipeline error.
    let more = client.call_pipelined(&[Request::Stats], 1).unwrap();
    assert!(matches!(more[0], Response::Stats(_)));
}

/// A blocking caller (`call`) and a pipelining caller (`call_pipelined`)
/// share one server, each on its own connection.
#[test]
fn blocking_and_pipelined_callers_share_one_server() {
    let server = spawn_server(2);
    let (s, t) = wrap_pair();

    let mut blocking = Client::connect(server.addr()).unwrap();
    let mut piped = Client::connect(server.addr()).unwrap();

    let (sh, th, _) = blocking.compile(&s, &t).unwrap();
    assert_ne!(sh, th);

    let responses = piped
        .call_pipelined(&[Request::Stats, Request::Stats], 2)
        .unwrap();
    assert!(responses.iter().all(|r| matches!(r, Response::Stats(_))));

    // The blocking caller is unaffected by the pipelined traffic.
    let stats = blocking.stats().unwrap();
    assert_eq!(stats.compiles, 1);
}

/// Windowed pipelining against the real server round-trips a full
/// traffic slice in request order.
#[test]
fn call_pipelined_preserves_request_order_across_windows() {
    let server = spawn_server(1);
    let pairs = loadgen::build_pairs(2, 11);
    let mut client = Client::connect(server.addr()).unwrap();

    let mut reqs = Vec::new();
    for p in &pairs {
        reqs.push(Request::Compile {
            source_dtd: p.source_text.clone(),
            target_dtd: p.target_text.clone(),
        });
        if let Some(doc) = p.docs.first() {
            reqs.push(Request::Apply {
                source_dtd: p.source_text.clone(),
                target_dtd: p.target_text.clone(),
                xml: doc.clone(),
            });
        }
        reqs.push(Request::Stats);
    }
    let responses = client.call_pipelined(&reqs, 3).unwrap();
    assert_eq!(responses.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&responses) {
        assert!(
            loadgen::response_matches(req, resp),
            "request {req:?} answered by wrong-kind {resp:?}"
        );
        assert!(
            !matches!(resp, Response::Error { .. }),
            "clean traffic must not error: {resp:?}"
        );
    }
}

/// The flush rule: the server holds an answer back only while the next
/// frame is already whole in its read buffer. A peer that sends frame 1
/// plus just the header of frame 2 must get answer 1 at once — not after
/// the server's read deadline gives up on frame 2.
#[test]
fn answer_is_flushed_while_the_next_frame_is_partial() {
    let read_deadline = Duration::from_secs(3);
    let server = Server::bind(
        ("127.0.0.1", 0),
        Arc::new(EmbeddingRegistry::new(RegistryConfig::default())),
        ServerConfig {
            workers: 1,
            read_timeout: Some(read_deadline),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut burst = Vec::new();
    write_frame(&mut burst, 1, &Request::Stats.encode()).unwrap();
    // Frame 2 announces a 16-byte payload that never comes.
    burst.extend_from_slice(&16u32.to_be_bytes());
    burst.extend_from_slice(&2u32.to_be_bytes());
    raw.write_all(&burst).unwrap();

    raw.set_read_timeout(Some(read_deadline / 2)).unwrap();
    let t0 = Instant::now();
    let (id, payload) = read_frame(&mut raw).expect("answer 1 before the read deadline");
    let waited = t0.elapsed();
    assert_eq!(id, 1);
    assert!(matches!(
        Response::decode(&payload),
        Some(Response::Stats(_))
    ));
    assert!(
        waited < read_deadline / 4,
        "answer 1 took {waited:?}; it waited on frame 2"
    );
    // Frame 2 stays incomplete: the server answers the stall (id 0,
    // connection-level) at its deadline and closes.
    raw.set_read_timeout(Some(2 * read_deadline)).unwrap();
    let (id, payload) = read_frame(&mut raw).unwrap();
    assert_eq!(id, 0);
    assert!(matches!(
        Response::decode(&payload),
        Some(Response::Error {
            code: ErrorCode::Timeout,
            ..
        })
    ));
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
}
