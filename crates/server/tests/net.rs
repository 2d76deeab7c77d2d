//! End-to-end tests for the network serve front-end over a real loopback
//! socket:
//!
//! * handshake + query/update/ping/stats round-trips, including the
//!   bad-query and budget-exhausted error paths;
//! * **bounded queries**: the QUERY frames that used to overflow or panic
//!   a worker are typed bad-query errors and the connection lives;
//! * **overload**: with maintenance deterministically paused, exactly
//!   `staleness_threshold` updates are admitted and every further one gets
//!   the typed SHED(maintenance-lag) response — never queued unboundedly —
//!   and after resume the final state is byte-identical to the serial
//!   oracle over exactly the admitted prefix;
//! * **drain**: during graceful shutdown an established connection still
//!   gets its in-flight query answered (and updates shed with reason
//!   draining) while brand-new TCP connects are refused.

use dkindex_core::{apply_serial, snapshot_bytes, DkIndex, DkServer, Requirements, ServeConfig};
use dkindex_datagen::{random_graph, RandomGraphConfig};
use dkindex_graph::DataGraph;
use dkindex_server::{Frame, NetClient, NetConfig, NetServer, ShedReason};
use std::time::{Duration, Instant};

fn fixture_graph() -> DataGraph {
    random_graph(&RandomGraphConfig {
        nodes: 220,
        labels: 5,
        reference_edges: 24,
        max_fanout: 6,
        seed: 0xD5EE,
    })
}

fn start_net(cfg: NetConfig) -> (NetServer, DataGraph, DkIndex) {
    let g = fixture_graph();
    let dk = DkIndex::build(&g, Requirements::uniform(2));
    let server = DkServer::start(
        g.clone(),
        dk.clone(),
        ServeConfig {
            max_batch: 16,
            ..ServeConfig::default()
        },
    );
    let net = NetServer::start(server, "127.0.0.1:0", cfg).expect("bind loopback");
    (net, g, dk)
}

#[test]
fn handshake_query_update_ping_stats_round_trip() {
    let (net, g, dk) = start_net(NetConfig::default());
    let addr = net.local_addr();

    let mut client = NetClient::connect(addr).expect("connect + handshake");
    assert_eq!(client.epoch_at_welcome(), 0);

    match client.ping().unwrap() {
        Frame::Pong { epoch } => assert_eq!(epoch, 0),
        other => panic!("expected PONG, got {other:?}"),
    }

    // A default-budget query answers exactly like a local evaluation.
    let reply = client.query("l1.l2", 0).unwrap();
    match reply {
        Frame::Answer {
            epoch, match_count, ..
        } => {
            assert_eq!(epoch, 0);
            let local = dkindex_core::evaluate_on_data(&g, &dkindex_pathexpr::parse("l1.l2").unwrap()).0;
            assert_eq!(match_count as usize, local.len());
        }
        other => panic!("expected ANSWER, got {other:?}"),
    }

    // Unparseable query text → typed bad-query error, connection stays up.
    match client.query("l1..", 0).unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, dkindex_server::ErrorCode::BadQuery),
        other => panic!("expected ERROR, got {other:?}"),
    }

    // A budget of 1 visit cannot complete any evaluation on this graph.
    match client.query("l1.l2.l3", 1).unwrap() {
        Frame::Error { code, .. } => {
            assert_eq!(code, dkindex_server::ErrorCode::BudgetExhausted);
        }
        other => panic!("expected budget ERROR, got {other:?}"),
    }

    // An update is admitted with backlog 1 and becomes visible post-flush.
    match client.update(3, 9).unwrap() {
        Frame::UpdateOk { pending } => assert_eq!(pending, 1),
        other => panic!("expected UPDATE_OK, got {other:?}"),
    }
    net.dk_server().flush().unwrap();
    match client.stats().unwrap() {
        Frame::StatsOk { text } => {
            assert!(text.contains("pending=0"), "post-flush stats: {text}");
            assert!(text.contains("ops_applied=1"), "stats: {text}");
        }
        other => panic!("expected STATS_OK, got {other:?}"),
    }
    match client.ping().unwrap() {
        Frame::Pong { epoch } => assert!(epoch >= 1, "update must have published"),
        other => panic!("expected PONG, got {other:?}"),
    }

    drop(client);
    let shutdown = net.shutdown().unwrap();
    // The shutdown state reflects the single admitted op, byte-identically
    // to the serial oracle.
    let (mut odk, mut og) = (dk, g);
    apply_serial(
        &mut odk,
        &mut og,
        &[dkindex_core::ServeOp::AddEdge {
            from: dkindex_graph::NodeId::from_index(3),
            to: dkindex_graph::NodeId::from_index(9),
        }],
    );
    assert_eq!(
        snapshot_bytes(&shutdown.index, &shutdown.data),
        snapshot_bytes(&odk, &og),
        "network path diverged from serial replay"
    );
}

/// ROADMAP item 1(a): one QUERY frame must not be able to kill the server.
/// The first two shapes used to abort the process with a stack overflow —
/// deep nesting inside `parse`'s recursive descent, a long flat chain in the
/// derived `Drop` of the left-deep AST — and the third, a symbol the lexer
/// used to slice mid-character, to panic its worker. All are `ERROR
/// BadQuery` now, with the connection still usable.
#[test]
fn hostile_query_frames_are_bad_query_errors_and_the_connection_survives() {
    let (net, _g, _dk) = start_net(NetConfig::default());
    let mut client = NetClient::connect(net.local_addr()).expect("connect + handshake");
    let nested = format!("{}item{}", "(".repeat(10_000), ")".repeat(10_000));
    assert_eq!(nested.len(), 20_004);
    let flat = vec!["a"; 500_000].join(".");
    assert_eq!(flat.len(), 999_999);
    for text in [nested.as_str(), flat.as_str(), "l1.é→"] {
        match client.query(text, 0).unwrap() {
            Frame::Error { code, message } => {
                assert_eq!(code, dkindex_server::ErrorCode::BadQuery, "{message}");
            }
            other => panic!("expected ERROR, got {other:?}"),
        }
        match client.ping().unwrap() {
            Frame::Pong { .. } => {}
            other => panic!("expected PONG, got {other:?}"),
        }
    }
    drop(client);
    net.shutdown().unwrap();
}

#[test]
fn overload_sheds_typed_and_stays_byte_identical() {
    const THRESHOLD: u64 = 8;
    const EXTRA: u64 = 5;
    let (net, g, dk) = start_net(NetConfig {
        staleness_threshold: THRESHOLD,
        ..NetConfig::default()
    });
    let mut client = NetClient::connect(net.local_addr()).expect("connect");

    // Deterministically stall maintenance: once this returns, nothing
    // submitted afterwards is applied until the gate drops.
    let gate = net.dk_server().pause_maintenance().unwrap();

    let mut admitted: Vec<(u64, u64)> = Vec::new();
    let mut sheds = 0u64;
    for i in 0..(THRESHOLD + EXTRA) {
        let (from, to) = (2 + i, 3 + i);
        match client.update(from, to).unwrap() {
            Frame::UpdateOk { pending } => {
                admitted.push((from, to));
                assert_eq!(u64::from(pending), admitted.len() as u64);
            }
            Frame::Shed {
                reason,
                pending,
                retry_after_ms,
            } => {
                assert_eq!(reason, ShedReason::MaintenanceLag);
                assert_eq!(u64::from(pending), THRESHOLD, "backlog at shed time");
                assert!(retry_after_ms > 0);
                sheds += 1;
            }
            other => panic!("expected UPDATE_OK or SHED, got {other:?}"),
        }
    }
    assert_eq!(
        admitted.len() as u64,
        THRESHOLD,
        "admission must stop exactly at the staleness threshold"
    );
    assert_eq!(sheds, EXTRA, "every overflow update gets a typed SHED");

    // Queries are still served while updates shed (reads don't lag).
    match client.query("l1", 0).unwrap() {
        Frame::Answer { epoch, .. } => assert_eq!(epoch, 0),
        other => panic!("expected ANSWER under overload, got {other:?}"),
    }

    // Resume; once the backlog is applied, updates are admitted again.
    drop(gate);
    net.dk_server().flush().unwrap();
    match client.update(100, 101).unwrap() {
        Frame::UpdateOk { pending } => assert_eq!(pending, 1),
        other => panic!("expected post-resume UPDATE_OK, got {other:?}"),
    }
    admitted.push((100, 101));

    drop(client);
    let shutdown = net.shutdown().unwrap();
    let (mut odk, mut og) = (dk, g);
    let ops: Vec<_> = admitted
        .iter()
        .map(|&(from, to)| dkindex_core::ServeOp::AddEdge {
            from: dkindex_graph::NodeId::from_index(from as usize),
            to: dkindex_graph::NodeId::from_index(to as usize),
        })
        .collect();
    apply_serial(&mut odk, &mut og, &ops);
    assert_eq!(
        snapshot_bytes(&shutdown.index, &shutdown.data),
        snapshot_bytes(&odk, &og),
        "admitted prefix must replay byte-identically"
    );
}

#[test]
fn drain_answers_in_flight_and_refuses_new_connects() {
    let (net, _g, _dk) = start_net(NetConfig {
        drain_grace_ms: 5_000,
        ..NetConfig::default()
    });
    let addr = net.local_addr();
    let mut established = NetClient::connect(addr).expect("connect before drain");

    let shutdown = std::thread::spawn(move || net.shutdown());

    // New TCP connects must start being refused once the listener drops.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match std::net::TcpStream::connect(addr) {
            Err(_) => break,
            Ok(_) => {
                assert!(
                    Instant::now() < deadline,
                    "connects were still accepted 10 s into the drain"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }

    // The established connection is inside the grace window: its query is
    // still answered...
    match established.query("l1", 0).unwrap() {
        Frame::Answer { .. } => {}
        other => panic!("expected ANSWER during drain, got {other:?}"),
    }
    // ...while updates are refused with the typed draining shed.
    match established.update(3, 9).unwrap() {
        Frame::Shed { reason, .. } => assert_eq!(reason, ShedReason::Draining),
        other => panic!("expected SHED(draining), got {other:?}"),
    }

    // Closing the last connection lets the drain finish well inside the
    // grace window.
    drop(established);
    let result = shutdown.join().expect("shutdown thread").unwrap();
    assert!(
        result.drain < Duration::from_secs(10),
        "drain took {:?}",
        result.drain
    );
}
