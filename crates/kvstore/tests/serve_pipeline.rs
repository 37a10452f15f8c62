//! End-to-end tests of the pipelined serving reactor: burst ordering,
//! concurrent readers under an ingest stream (vs. a serially driven server),
//! connection-level fault isolation, and crash-style recovery through the
//! queued durable writer.

use bytes::BytesMut;
use graph_durability::store::DurabilityConfig;
use graph_durability::{SimVfs, SyncPolicy};
use kvstore::graph_module::CuckooGraphModule;
use kvstore::reactor::{Reactor, ServerConfig};
use kvstore::{DurableServer, RespValue, Server};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

fn cfg() -> DurabilityConfig {
    DurabilityConfig::new("kv").with_sync_policy(SyncPolicy::Never)
}

fn make_server() -> Server {
    let mut s = Server::new();
    s.load_module(Box::new(CuckooGraphModule::new()));
    s
}

fn spawn_reactor(vfs: &SimVfs, config: ServerConfig) -> Reactor {
    let (durable, _) = DurableServer::open(vfs.clone(), cfg(), make_server).unwrap();
    Reactor::spawn(durable, config).unwrap()
}

/// A tiny RESP test client: writes whole bursts, decodes whole replies.
struct Client {
    stream: TcpStream,
    buf: BytesMut,
}

impl Client {
    fn connect(reactor: &Reactor) -> Self {
        let stream = TcpStream::connect(reactor.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Self {
            stream,
            buf: BytesMut::new(),
        }
    }

    fn send(&mut self, commands: &[&[&str]]) {
        let mut wire = Vec::new();
        for parts in commands {
            wire.extend_from_slice(&RespValue::command(parts).encode());
        }
        self.stream.write_all(&wire).unwrap();
    }

    fn recv(&mut self) -> RespValue {
        loop {
            if let Some(value) = RespValue::decode(&mut self.buf).unwrap() {
                return value;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed mid-reply");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn roundtrip(&mut self, parts: &[&str]) -> RespValue {
        self.send(&[parts]);
        self.recv()
    }
}

fn ok() -> RespValue {
    RespValue::Simple("OK".into())
}

fn successors(value: &RespValue) -> Vec<u64> {
    let RespValue::Array(items) = value else {
        panic!("expected array, got {value:?}");
    };
    items
        .iter()
        .map(|item| match item {
            RespValue::Bulk(b) => std::str::from_utf8(b).unwrap().parse().unwrap(),
            other => panic!("expected bulk, got {other:?}"),
        })
        .collect()
}

#[test]
fn pipelined_burst_returns_ordered_replies() {
    let vfs = SimVfs::new();
    let reactor = spawn_reactor(&vfs, ServerConfig::new());
    let mut client = Client::connect(&reactor);

    // One write carrying a mixed burst: writes, reads-after-writes (which
    // must observe them), kv traffic and a trailing read.
    let burst: Vec<Vec<String>> = (0..50u64)
        .flat_map(|i| {
            vec![
                vec!["GRAPH.ADDEDGE".into(), "7".to_string(), i.to_string()],
                vec!["GRAPH.DEGREE".into(), "7".to_string()],
                vec!["SET".into(), format!("k{i}"), i.to_string()],
            ]
        })
        .collect();
    let as_slices: Vec<Vec<&str>> = burst
        .iter()
        .map(|c| c.iter().map(String::as_str).collect())
        .collect();
    let refs: Vec<&[&str]> = as_slices.iter().map(Vec::as_slice).collect();
    client.send(&refs);

    for i in 0..50u64 {
        assert_eq!(client.recv(), ok(), "ADDEDGE #{i}");
        // The read is pipelined behind the i-th insert on the same
        // connection: it must see exactly i+1 edges, in order.
        assert_eq!(
            client.recv(),
            RespValue::Integer(i as i64 + 1),
            "DEGREE after insert #{i}"
        );
        assert_eq!(client.recv(), ok(), "SET #{i}");
    }
    assert_eq!(
        client.roundtrip(&["GRAPH.EDGECOUNT"]),
        RespValue::Integer(50)
    );
    reactor.shutdown();
}

#[test]
fn concurrent_readers_under_ingest_match_the_serial_oracle() {
    let vfs = SimVfs::new();
    let reactor = spawn_reactor(&vfs, ServerConfig::new().with_workers(3));
    let pins_before = reactor.read_counters().read_pins;
    const EDGES: u64 = 400;

    // One writer connection streams inserts while reader connections hammer
    // GRAPH.SUCCESSORS on the hot vertex the whole time.
    let writer = {
        let reactor_addr = reactor.addr();
        std::thread::spawn(move || {
            let stream = TcpStream::connect(reactor_addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut client = Client {
                stream,
                buf: BytesMut::new(),
            };
            for v in 0..EDGES {
                let vs = v.to_string();
                assert_eq!(client.roundtrip(&["GRAPH.ADDEDGE", "1", &vs]), ok());
            }
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let reactor_addr = reactor.addr();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(reactor_addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut client = Client {
                    stream,
                    buf: BytesMut::new(),
                };
                let mut last = 0usize;
                for _ in 0..300 {
                    let seen = successors(&client.roundtrip(&["GRAPH.SUCCESSORS", "1"]));
                    // Monotone: a snapshot never shows fewer edges than an
                    // earlier acknowledged read, and never shows garbage.
                    assert!(seen.len() >= last, "successor set shrank");
                    assert!(seen.iter().all(|v| *v < EDGES));
                    last = seen.len();
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for reader in readers {
        reader.join().unwrap();
    }

    // Readers really took the inline read-guard path.
    let pins_after = reactor.read_counters().read_pins;
    assert!(
        pins_after > pins_before,
        "read_pins must rise: {pins_before} -> {pins_after}"
    );

    // Final state is exactly what a serial oracle produces.
    let mut check = Client::connect(&reactor);
    let seen = successors(&check.roundtrip(&["GRAPH.SUCCESSORS", "1"]));
    let mut oracle = make_server();
    for v in 0..EDGES {
        let parts: Vec<String> = vec!["GRAPH.ADDEDGE".into(), "1".into(), v.to_string()];
        oracle.execute(&parts);
    }
    let oracle_parts: Vec<String> = vec!["GRAPH.SUCCESSORS".into(), "1".into()];
    let oracle_reply = oracle.execute(&oracle_parts);
    let mut oracle_bytes = Vec::new();
    Server::encode_reply_into(&oracle_reply, &mut oracle_bytes);
    let mut oracle_buf = BytesMut::from(&oracle_bytes[..]);
    let oracle_seen = successors(&RespValue::decode(&mut oracle_buf).unwrap().unwrap());
    assert_eq!(seen, oracle_seen);
    reactor.shutdown();
}

#[test]
fn acknowledged_writes_survive_shutdown_and_recover() {
    let vfs = SimVfs::new();
    {
        let reactor = spawn_reactor(&vfs, ServerConfig::new());
        let mut client = Client::connect(&reactor);
        for v in 0..64u64 {
            let vs = v.to_string();
            assert_eq!(client.roundtrip(&["GRAPH.ADDEDGE", "9", &vs]), ok());
        }
        assert_eq!(client.roundtrip(&["SET", "survivor", "yes"]), ok());
        // Every reply above was read back: each command is group-committed to
        // the log before its reply exists. Kill the reactor.
        reactor.shutdown();
    }

    // Reopen from the same simulated disk: the queued writer's batches must
    // replay to exactly the acknowledged state.
    let (mut revived, report) = DurableServer::open(vfs, cfg(), make_server).unwrap();
    assert_eq!(report.ops_replayed, 65);
    let parts: Vec<String> = vec!["GRAPH.DEGREE".into(), "9".into()];
    assert_eq!(revived.execute(&parts), kvstore::Reply::Integer(64));
    let parts: Vec<String> = vec!["GET".into(), "survivor".into()];
    assert_eq!(revived.execute(&parts), kvstore::Reply::Bulk("yes".into()));
}

#[test]
fn malformed_frame_closes_only_that_connection() {
    let vfs = SimVfs::new();
    let reactor = spawn_reactor(&vfs, ServerConfig::new());

    let mut bad = Client::connect(&reactor);
    bad.stream.write_all(b"?nonsense\r\n").unwrap();
    let reply = bad.recv();
    assert!(
        matches!(&reply, RespValue::Error(e) if e.contains("protocol error")),
        "got {reply:?}"
    );
    let mut rest = Vec::new();
    bad.stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "reactor closed the poisoned connection");

    // A peer that hangs up mid-command is a clean close: nothing of the
    // half-sent command executes and the reactor keeps serving.
    let half = Client::connect(&reactor);
    let partial = RespValue::command(&["SET", "half", "sent"]).encode();
    (&half.stream)
        .write_all(&partial[..partial.len() - 4])
        .unwrap();
    half.stream.shutdown(Shutdown::Both).unwrap();

    let mut good = Client::connect(&reactor);
    assert_eq!(good.roundtrip(&["SET", "x", "1"]), ok());
    assert_eq!(good.roundtrip(&["GET", "x"]), RespValue::bulk("1"));
    assert_eq!(good.roundtrip(&["GET", "half"]), RespValue::Null);

    // Connections share one keyspace: a second connection reads the first
    // one's write.
    let mut other = Client::connect(&reactor);
    assert_eq!(other.roundtrip(&["GET", "x"]), RespValue::bulk("1"));
    reactor.shutdown();
}
