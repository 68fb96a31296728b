//! End-to-end service tests: an in-process server on an ephemeral
//! loopback port, exercised through real sockets — verb round trips, a
//! concurrent multi-connection differential against `BTreeMap` models,
//! drain under load (no dropped in-flight responses), and hostile-bytes
//! resilience.

use lll_server::{Client, KvMap, MetricsReply, Request, Server, ServerConfig, WireError};
use lll_sharded::{ShardedBuilder, ShardedMap};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn small_shards() -> Arc<KvMap> {
    // Aggressive split thresholds so even small tests cross shard
    // boundaries and exercise the directory.
    Arc::new(ShardedBuilder::new().max_shard_len(64).min_shard_len(8).seed(77).build())
}

fn start(map: Arc<KvMap>) -> lll_server::ServerHandle {
    Server::start(map, ServerConfig::default()).expect("bind ephemeral port")
}

fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
    (format!("key-{i:08}").into_bytes(), format!("value-{i}").into_bytes())
}

#[test]
fn all_verbs_roundtrip_over_a_real_socket() {
    let mut server = start(small_shards());
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Point verbs.
    assert_eq!(c.get(b"missing").unwrap(), None);
    assert_eq!(c.insert(b"alpha", b"1").unwrap(), None);
    assert_eq!(c.insert(b"alpha", b"2").unwrap().as_deref(), Some(&b"1"[..]));
    assert!(c.contains(b"alpha").unwrap());
    assert!(!c.contains(b"beta").unwrap());
    assert_eq!(c.remove(b"alpha").unwrap().as_deref(), Some(&b"2"[..]));
    assert_eq!(c.remove(b"alpha").unwrap(), None);

    // Batch + range: 300 keys crossing several shards.
    let entries: Vec<_> = (0..300).map(kv).collect();
    assert_eq!(c.batch_insert(entries.clone()).unwrap(), 300);
    let (all, truncated) = c.range(None, None, 1_000).unwrap();
    assert_eq!(all, entries);
    assert!(!truncated);
    let (page, truncated) = c.range(Some(&kv(10).0), Some(&kv(290).0), 7).unwrap();
    assert_eq!(page, entries[10..17].to_vec());
    assert!(truncated, "280 candidates capped at 7 must flag truncation");
    let (tail, truncated) = c.range(Some(&kv(295).0), None, 1_000).unwrap();
    assert_eq!(tail, entries[295..].to_vec());
    assert!(!truncated);

    // Ops surface.
    let health = c.health().unwrap();
    assert!(!health.draining);
    assert_eq!(health.len, 300);
    assert!(health.active_conns >= 1);
    assert!(health.served_requests > 10);
    let m = c.metrics().unwrap();
    assert!(m.shard_lens.len() > 1, "300 keys over max 64 must shard");
    assert_eq!(m.shard_lens.iter().sum::<u64>(), 300);
    assert!(m.batches >= 1, "batch_insert must ride the bulk path");
    assert_eq!(m.batched_entries, 300);
    assert!(m.total_moves >= 300, "every landed entry moved at least once");
    assert!(m.splits > 0);

    server.shutdown();
}

#[test]
fn snapshot_verb_streams_a_restorable_snapshot() {
    let mut server = start(small_shards());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let entries: Vec<_> = (0..200).map(kv).collect();
    c.batch_insert(entries.clone()).unwrap();

    let path = std::env::temp_dir().join(format!("lll_server_snap_{}.snap", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    c.snapshot(&path_str).unwrap();

    let file = std::fs::File::open(&path).unwrap();
    let restored: ShardedMap<Vec<u8>, Vec<u8>> =
        ShardedMap::read_snapshot(&mut std::io::BufReader::new(file)).unwrap();
    restored.check_invariants();
    assert_eq!(restored.to_vec(), entries);
    assert_eq!(restored.shard_count(), server.map().shard_count());
    std::fs::remove_file(&path).ok();

    // A snapshot to an unwritable path is a typed remote error, and the
    // connection stays usable afterwards.
    match c.snapshot("/nonexistent-dir/nope.snap") {
        Err(WireError::Remote(msg)) => assert!(msg.contains("snapshot"), "{msg}"),
        other => panic!("expected Remote error, got {other:?}"),
    }
    assert!(c.contains(&kv(0).0).unwrap(), "connection survives a failed verb");

    server.shutdown();
}

#[test]
fn concurrent_clients_match_btreemap_models() {
    let mut server = start(small_shards());
    let addr = server.local_addr();
    const THREADS: u64 = 4;
    const OPS: u64 = 1_500;

    let models: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut model = BTreeMap::new();
                    let mut x = 0x9E37 + tid;
                    for i in 0..OPS {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        // Striped keys: thread-disjoint, so models merge.
                        let (k, v) = kv((x % 400) * THREADS + tid);
                        match x % 10 {
                            0..=5 => {
                                assert_eq!(
                                    c.insert(&k, &v).unwrap(),
                                    model.insert(k, v),
                                    "insert mismatch (thread {tid}, op {i})"
                                );
                            }
                            6..=7 => {
                                assert_eq!(
                                    c.remove(&k).unwrap(),
                                    model.remove(&k),
                                    "remove mismatch (thread {tid}, op {i})"
                                );
                            }
                            8 => {
                                assert_eq!(
                                    c.get(&k).unwrap(),
                                    model.get(&k).cloned(),
                                    "get mismatch (thread {tid}, op {i})"
                                );
                            }
                            _ => {
                                assert_eq!(
                                    c.contains(&k).unwrap(),
                                    model.contains_key(&k),
                                    "contains mismatch (thread {tid}, op {i})"
                                );
                            }
                        }
                    }
                    model
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let merged: BTreeMap<Vec<u8>, Vec<u8>> = models.into_iter().flatten().collect();
    let mut c = Client::connect(addr).unwrap();
    let (all, truncated) = c.range(None, None, u64::MAX).unwrap();
    assert!(!truncated);
    assert_eq!(all, merged.into_iter().collect::<Vec<_>>());
    server.map().check_invariants();
    server.shutdown();
}

#[test]
fn drain_under_load_drops_no_acked_response() {
    let mut server = start(small_shards());
    let addr = server.local_addr();
    const THREADS: u64 = 4;
    const MAX_OPS: u64 = 200_000;

    struct Outcome {
        acked: Vec<Vec<u8>>,
        in_doubt: Option<Vec<u8>>,
    }

    let outcomes: Vec<Outcome> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut acked = Vec::new();
                    let mut in_doubt = None;
                    for i in 0..MAX_OPS {
                        let (k, v) = kv(i * THREADS + tid);
                        match c.insert(&k, &v) {
                            Ok(prev) => {
                                assert_eq!(prev, None, "keys are distinct");
                                acked.push(k);
                            }
                            Err(_) => {
                                // The drain closed the connection: the one
                                // unanswered request may or may not have
                                // landed; everything acked before it must
                                // have.
                                in_doubt = Some(k);
                                break;
                            }
                        }
                    }
                    Outcome { acked, in_doubt }
                })
            })
            .collect();
        // Let the writers get going, then drain mid-flight.
        thread::sleep(Duration::from_millis(60));
        server.drain();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    server.join();

    let map = server.map();
    let mut total_acked = 0u64;
    for (tid, outcome) in outcomes.iter().enumerate() {
        assert!(
            outcome.in_doubt.is_some() || outcome.acked.len() == MAX_OPS as usize,
            "thread {tid} stopped early without a connection error"
        );
        total_acked += outcome.acked.len() as u64;
        for k in &outcome.acked {
            assert!(map.contains_key(k), "acked insert missing after drain (thread {tid})");
        }
    }
    assert!(total_acked > 0, "drain fired before any request completed");
    // Nothing landed beyond the acked set plus (at most) one in-doubt
    // request per connection.
    let in_doubt = outcomes.iter().filter(|o| o.in_doubt.is_some()).count() as u64;
    let len = map.len() as u64;
    assert!(
        len >= total_acked && len <= total_acked + in_doubt,
        "map holds {len} entries for {total_acked} acked + {in_doubt} in-doubt"
    );
    map.check_invariants();

    // The drained server refuses further service.
    let mut late = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => return, // listener already gone — equally acceptable
    };
    assert!(late.get(b"anything").is_err(), "a drained server must not serve");
}

#[test]
fn drain_verb_with_final_snapshot() {
    let mut server = start(small_shards());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let entries: Vec<_> = (0..150).map(kv).collect();
    c.batch_insert(entries.clone()).unwrap();

    let path = std::env::temp_dir().join(format!("lll_server_drain_{}.snap", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    c.drain(Some(&path_str)).unwrap();
    server.join();
    assert!(server.is_draining());

    let file = std::fs::File::open(&path).unwrap();
    let restored: ShardedMap<Vec<u8>, Vec<u8>> =
        ShardedMap::read_snapshot(&mut std::io::BufReader::new(file)).unwrap();
    assert_eq!(restored.to_vec(), entries);
    std::fs::remove_file(&path).ok();
}

#[test]
fn hostile_bytes_get_a_typed_error_and_the_server_survives() {
    let mut server = start(small_shards());
    let addr = server.local_addr();

    // Garbage magic: the server answers with a typed protocol error
    // frame, then closes that connection.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    raw.flush().unwrap();
    match lll_server::Response::read_from(&mut &raw) {
        Ok(lll_server::Response::Error(msg)) => assert!(msg.contains("protocol"), "{msg}"),
        other => panic!("expected protocol-error response, got {other:?}"),
    }

    // An oversized declared frame is refused the same way, without the
    // server attempting the allocation.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut huge = Vec::new();
    lll_server::frame::write_frame(&mut huge, 0x03, &[0; 8]).unwrap();
    huge[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
    raw.write_all(&huge[..11]).unwrap();
    raw.flush().unwrap();
    match lll_server::Response::read_from(&mut &raw) {
        Ok(lll_server::Response::Error(msg)) => assert!(msg.contains("protocol"), "{msg}"),
        other => panic!("expected protocol-error response, got {other:?}"),
    }

    // A request the server does not know (response opcode on the request
    // stream) is typed, too.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    lll_server::frame::write_frame(&mut buf, 0x81, &[]).unwrap();
    raw.write_all(&buf).unwrap();
    raw.flush().unwrap();
    assert!(matches!(
        lll_server::Response::read_from(&mut &raw),
        Ok(lll_server::Response::Error(_))
    ));

    // The server is still fully alive for well-formed clients.
    let mut c = Client::connect(addr).unwrap();
    c.insert(b"still", b"serving").unwrap();
    assert_eq!(c.get(b"still").unwrap().as_deref(), Some(&b"serving"[..]));
    server.shutdown();
}

#[test]
fn request_display_types_are_inspectable() {
    // The proto enums are public API: a debug representation and opcode
    // stability matter for tooling.
    assert_eq!(Request::Health.opcode(), 0x01);
    assert_eq!(Request::Drain { final_snapshot: None }.opcode(), 0x0A);
    let req = Request::Get(b"k".to_vec());
    assert!(format!("{req:?}").contains("Get"));
}

#[test]
fn metrics_verb_reports_latencies_shards_and_trace() {
    let mut server = start(small_shards());
    let mut c = Client::connect(server.local_addr()).unwrap();

    // A known verb mix, with the insert round trips timed client-side so
    // the server's reported latencies can be checked differentially.
    let mut client_insert_max_ns = 0u128;
    for i in 0..300u64 {
        let (k, v) = kv(i);
        let t = std::time::Instant::now();
        c.insert(&k, &v).unwrap();
        client_insert_max_ns = client_insert_max_ns.max(t.elapsed().as_nanos());
    }
    for i in 0..120u64 {
        c.get(&kv(i).0).unwrap();
    }
    for i in 0..40u64 {
        c.contains(&kv(i).0).unwrap();
    }
    c.remove(&kv(0).0).unwrap();

    let m = c.metrics().unwrap();

    // Per-verb accounting matches exactly what this (sole) client sent,
    // in VERBS order.
    assert_eq!(
        m.verbs.iter().map(|v| v.verb.as_str()).collect::<Vec<_>>(),
        lll_server::VERBS.to_vec()
    );
    let verb = |name: &str| m.verbs.iter().find(|v| v.verb == name).unwrap();
    assert_eq!(verb("insert").count, 300);
    assert_eq!(verb("get").count, 120);
    assert_eq!(verb("contains").count, 40);
    assert_eq!(verb("remove").count, 1);
    assert_eq!(verb("snapshot").count, 0, "verbs never sent stay zero");

    // Quantiles are ordered, capped at the exact observed max, and the
    // served verbs actually recorded samples.
    for v in &m.verbs {
        assert!(v.p50_ns <= v.p95_ns, "{}: p50 > p95", v.verb);
        assert!(v.p95_ns <= v.p99_ns, "{}: p95 > p99", v.verb);
        assert!(v.p99_ns <= v.max_ns || v.count == 0, "{}: p99 > max", v.verb);
    }
    assert!(verb("insert").max_ns > 0);

    // Differential check: every server-side handling span nests inside
    // one of the client round trips timed above.
    assert!(
        u128::from(verb("insert").max_ns) <= client_insert_max_ns,
        "server-side insert max {} must sit inside the slowest client round trip {}",
        verb("insert").max_ns,
        client_insert_max_ns
    );

    // Per-shard gauges agree with the workload.
    assert!(m.shard_lens.len() > 1, "300 keys over max 64 must shard");
    assert_eq!(m.shard_lens.iter().sum::<u64>(), 299, "300 inserts - 1 remove");
    assert_eq!(m.shard_reads.len(), m.shard_lens.len());
    assert_eq!(m.shard_writes.len(), m.shard_lens.len());
    assert_eq!(m.shard_reads.iter().sum::<u64>(), 160, "120 gets + 40 contains");
    assert_eq!(m.shard_writes.iter().sum::<u64>(), 301, "300 inserts + 1 remove");
    assert!(m.splits > 0);

    // The same data is scrapable as a Prometheus text exposition.
    assert!(m.text.contains("# TYPE lll_server_request_latency_ns histogram"), "{}", m.text);
    assert!(m.text.contains("lll_server_request_latency_ns_count{verb=\"insert\"} 300"));
    assert!(m.text.contains("lll_shard_len{shard=\"0\"}"));
    assert!(m.text.contains("lll_shard_splits_total"));
    assert!(m.text.contains(&format!("lll_moves_total {}\n", m.total_moves)), "{}", m.text);

    // The trace verb drains the map's structural history: the splits the
    // workload forced are there, in order.
    let t = c.trace().unwrap();
    assert!(
        t.events.iter().any(|e| e.kind == lll_obs::TraceKind::Split as u64),
        "splits must be traced: {:?}",
        t.events
    );
    assert!(t.events.windows(2).all(|w| w[0].seq < w[1].seq), "events sorted by seq");

    server.shutdown();
}

#[test]
fn durable_mode_survives_restart_and_checkpoints_over_the_wire() {
    use lll_wal::{DurableOptions, FsyncPolicy, WalOptions};

    let dir = std::env::temp_dir().join(format!("lll_srv_durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = || DurableOptions {
        wal: WalOptions { fsync: FsyncPolicy::Always, segment_bytes: 4 << 10 },
        keep_checkpoints: 2,
    };
    let builder = ShardedBuilder::new().max_shard_len(64).min_shard_len(8).seed(77);

    // Session 1: write through the wire, checkpoint via the snapshot
    // verb, write more, stop WITHOUT a graceful drain snapshot.
    {
        let (mut server, rec) =
            Server::start_durable(&dir, opts(), &builder, ServerConfig::default())
                .expect("open durable server");
        assert_eq!(rec.entries, 0);
        let mut c = Client::connect(server.local_addr()).unwrap();
        let entries: Vec<_> = (0..200).map(kv).collect();
        assert_eq!(c.batch_insert(entries).unwrap(), 200);
        assert_eq!(c.insert(b"solo", b"one").unwrap(), None);
        assert_eq!(c.remove(&kv(7).0).unwrap().as_deref(), Some(&kv(7).1[..]));
        // The snapshot verb is a checkpoint in durable mode: no path
        // needed, the state lands in the WAL directory.
        c.snapshot("").unwrap();
        assert!(server.durable().unwrap().checkpoint_lsn() > 0);
        assert_eq!(c.insert(b"after-checkpoint", b"yes").unwrap(), None);

        // The wire metrics carry the WAL counters.
        let m = c.metrics().unwrap();
        assert!(m.wal_appends >= 4, "batch + 2 inserts + remove: {}", m.wal_appends);
        assert!(m.wal_fsyncs > 0);
        assert!(m.wal_durable_lsn >= m.wal_appends);
        assert!(m.text.contains("# TYPE lll_wal_appends_total counter"), "{}", m.text);
        assert!(m.text.contains("lll_wal_fsyncs_total"), "{}", m.text);
        server.shutdown();
    }

    // Session 2: everything acked in session 1 — checkpointed or only
    // logged — is back.
    {
        let (mut server, rec) =
            Server::start_durable(&dir, opts(), &builder, ServerConfig::default())
                .expect("recover durable server");
        assert!(rec.checkpoint_lsn > 0, "recovery must land on the checkpoint");
        assert_eq!(rec.entries, 201); // 200 batch - 1 remove + solo + after-checkpoint
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.get(b"solo").unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(c.get(b"after-checkpoint").unwrap().as_deref(), Some(&b"yes"[..]));
        assert_eq!(c.get(&kv(7).0).unwrap(), None);
        assert_eq!(c.get(&kv(8).0).unwrap().as_deref(), Some(&kv(8).1[..]));
        assert_eq!(c.health().unwrap().len, 201);
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn metric_catalog_matches_a_live_durable_server() {
    use lll_wal::{DurableOptions, FsyncPolicy, WalOptions};

    // Every verb once; drain last, since it ends the session. A durable
    // server's `snapshot("")` is a checkpoint; a plain one needs a path.
    fn session(mut server: lll_server::ServerHandle, snapshot: &str) -> MetricsReply {
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.health().unwrap();
        c.insert(b"k", b"v").unwrap();
        c.get(b"k").unwrap();
        c.contains(b"k").unwrap();
        c.range(None, None, 10).unwrap();
        c.batch_insert((0..100).map(kv).collect()).unwrap();
        c.remove(b"k").unwrap();
        c.snapshot(snapshot).unwrap();
        c.trace().unwrap();
        let m = c.metrics().unwrap();
        c.drain(None).unwrap();
        server.join();
        m
    }

    // The families an exposition declares, as sorted (name, kind) pairs.
    fn declared(text: &str) -> Vec<(&str, &str)> {
        let mut declared: Vec<(&str, &str)> =
            text.lines().filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' ')).collect();
        for (name, _) in &declared {
            let mut chars = name.chars();
            let snake = matches!(chars.next(), Some('a'..='z'))
                && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            assert!(snake, "{name} is not snake_case");
        }
        declared.sort_unstable();
        for pair in declared.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "family declared twice");
        }
        declared
    }

    let dir = std::env::temp_dir().join(format!("lll_srv_catalog_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurableOptions {
        wal: WalOptions { fsync: FsyncPolicy::Always, segment_bytes: 4 << 10 },
        keep_checkpoints: 2,
    };
    let builder = ShardedBuilder::new().max_shard_len(64).min_shard_len(8).seed(77);
    let (server, _) = Server::start_durable(&dir, opts, &builder, ServerConfig::default())
        .expect("open durable server");
    let durable = session(server, "");
    let plain = session(start(small_shards()), dir.join("plain.snap").to_str().unwrap());
    std::fs::remove_dir_all(&dir).unwrap();

    // The catalog table of docs/observability.md: "| `name` | kind | ...".
    let doc = include_str!("../../../docs/observability.md");
    let section = doc
        .split("## Metric name catalog")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("catalog section");
    let mut catalog: Vec<(&str, &str)> = section
        .lines()
        .filter_map(|l| {
            let mut cells = l.split('|').map(str::trim).skip(1);
            let name = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            Some((name, cells.next()?))
        })
        .collect();
    catalog.sort_unstable();
    assert_eq!(declared(&durable.text), catalog, "docs/observability.md's catalog drifted");
    // A plain server has no log: the catalog minus its six WAL rows.
    let mut plain_catalog = catalog.clone();
    plain_catalog.retain(|(name, _)| !name.starts_with("lll_wal_"));
    assert_eq!(catalog.len() - plain_catalog.len(), 6);
    assert_eq!(declared(&plain.text), plain_catalog, "plain server vs catalog minus WAL rows");
}
