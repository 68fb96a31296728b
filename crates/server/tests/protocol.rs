//! Protocol negatives in the style of `tests/persistence.rs`: every
//! hostile byte stream must yield a typed [`WireError`] — never a panic,
//! never an unbounded allocation.

use lll_server::frame::{read_frame, write_frame, Frame, MAX_FRAME_LEN, WIRE_MAGIC};
use lll_server::{Request, Response, WireError};

fn all_requests() -> Vec<Request> {
    vec![
        Request::Health,
        Request::Get(b"key".to_vec()),
        Request::Insert(b"key".to_vec(), b"value".to_vec()),
        Request::Remove(Vec::new()),
        Request::Contains(b"k".to_vec()),
        Request::Range { start: Some(b"a".to_vec()), end: None, limit: 100 },
        Request::Range { start: None, end: Some(b"z".to_vec()), limit: 0 },
        Request::BatchInsert(vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), Vec::new())]),
        Request::BatchInsert(Vec::new()),
        Request::Snapshot { path: "/tmp/snap.lll".to_string() },
        Request::Drain { final_snapshot: None },
        Request::Drain { final_snapshot: Some("éxodus.snap".to_string()) },
        Request::Metrics,
        Request::Trace,
    ]
}

fn all_responses() -> Vec<Response> {
    vec![
        Response::Ok,
        Response::Value(None),
        Response::Value(Some(b"v".to_vec())),
        Response::Bool(true),
        Response::Entries { entries: vec![(b"k".to_vec(), b"v".to_vec())], truncated: true },
        Response::Entries { entries: Vec::new(), truncated: false },
        Response::Batched { received: 10, landed: 7 },
        Response::Health(lll_server::HealthReply {
            draining: false,
            active_conns: 3,
            served_requests: 99,
            len: 1000,
        }),
        Response::Error("bad day".to_string()),
        Response::Metrics(lll_server::MetricsReply {
            verbs: vec![lll_server::VerbLatency {
                verb: "get".to_string(),
                count: 42,
                p50_ns: 2048,
                p95_ns: 8192,
                p99_ns: 16384,
                max_ns: 13000,
            }],
            shard_lens: vec![10, 20],
            shard_reads: vec![5, 9],
            shard_writes: vec![30, 31],
            splits: 1,
            merges: 0,
            batches: 2,
            batched_entries: 64,
            total_moves: 4096,
            wal_appends: 4242,
            wal_fsyncs: 99,
            wal_rotations: 7,
            wal_truncated_segments: 5,
            wal_durable_lsn: 4240,
            text: "# TYPE lll_server_request_latency_ns histogram\n".to_string(),
        }),
        Response::Metrics(lll_server::MetricsReply::default()),
        Response::Trace(lll_server::TraceReply {
            events: vec![
                lll_server::TraceEventWire { seq: 0, kind: 4, a: 0, b: 2, c: 64 },
                lll_server::TraceEventWire { seq: 1, kind: 5, a: 0, b: 1, c: 12 },
            ],
        }),
        Response::Trace(lll_server::TraceReply::default()),
    ]
}

fn encode_request(r: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    r.write_to(&mut buf).unwrap();
    buf
}

#[test]
fn requests_roundtrip() {
    for req in all_requests() {
        let buf = encode_request(&req);
        let mut r = buf.as_slice();
        assert_eq!(Request::read_from(&mut r).unwrap(), req);
        assert!(r.is_empty(), "decode must consume exactly one frame: {req:?}");
    }
}

#[test]
fn responses_roundtrip() {
    for resp in all_responses() {
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(Response::read_from(&mut r).unwrap(), resp);
        assert!(r.is_empty(), "decode must consume exactly one frame: {resp:?}");
    }
}

#[test]
fn every_prefix_of_every_request_is_truncated() {
    for req in all_requests() {
        let buf = encode_request(&req);
        for cut in 0..buf.len() {
            match Request::read_from(&mut &buf[..cut]) {
                Err(WireError::Truncated) => {}
                other => panic!("{req:?} prefix {cut}/{}: {other:?}", buf.len()),
            }
        }
    }
}

#[test]
fn bit_flips_never_panic_and_header_flips_are_typed() {
    let req = Request::Insert(b"flip-key".to_vec(), b"flip-value".to_vec());
    let buf = encode_request(&req);
    for pos in 0..buf.len() {
        for bit in 0..8 {
            let mut bad = buf.clone();
            bad[pos] ^= 1 << bit;
            // Never a panic; when it decodes, a flipped bit cannot give
            // back the identical request.
            match Request::read_from(&mut bad.as_slice()) {
                Ok(decoded) => assert_ne!(decoded, req, "byte {pos} bit {bit} no-op flip"),
                Err(
                    WireError::Truncated
                    | WireError::BadMagic
                    | WireError::UnsupportedVersion { .. }
                    | WireError::UnknownOpcode(_)
                    | WireError::FrameTooLarge { .. }
                    | WireError::Corrupt(_)
                    | WireError::Io(_),
                ) => {}
                Err(other) => panic!("byte {pos} bit {bit}: unexpected {other:?}"),
            }
        }
    }
    // The specific header fields produce their specific variants.
    let mut bad = buf.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(Request::read_from(&mut bad.as_slice()), Err(WireError::BadMagic)));
    let mut bad = buf.clone();
    bad[4] = 0x63; // version low byte → 99
    assert!(matches!(
        Request::read_from(&mut bad.as_slice()),
        Err(WireError::UnsupportedVersion { found: 99 })
    ));
    let mut bad = buf.clone();
    bad[4] = 1; // a version-1 peer: its reply layouts differ, so refused
    assert!(matches!(
        Request::read_from(&mut bad.as_slice()),
        Err(WireError::UnsupportedVersion { found: 1 })
    ));
    let mut bad = buf.clone();
    bad[4] = 2; // a version-2 peer still sends the three read-path fields
    assert!(matches!(
        Request::read_from(&mut bad.as_slice()),
        Err(WireError::UnsupportedVersion { found: 2 })
    ));
    let mut bad = buf.clone();
    bad[6] = 0x7F; // opcode
    assert!(matches!(Request::read_from(&mut bad.as_slice()), Err(WireError::UnknownOpcode(0x7F))));
    // The opcodes of the retired `stats` verb stay unassigned.
    let mut retired = Vec::new();
    write_frame(&mut retired, 0x02, &[]).unwrap();
    assert!(matches!(
        Request::read_from(&mut retired.as_slice()),
        Err(WireError::UnknownOpcode(0x02))
    ));
    let mut retired = Vec::new();
    write_frame(&mut retired, 0x87, &[]).unwrap();
    assert!(matches!(
        Response::read_from(&mut retired.as_slice()),
        Err(WireError::UnknownOpcode(0x87))
    ));
}

#[test]
fn oversized_declared_lengths_are_rejected_before_allocation() {
    // Frame header declaring a body over the cap: typed error, instantly.
    let mut buf = Vec::new();
    write_frame(&mut buf, 0x03, &[0u8; 4]).unwrap();
    buf[7..11].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    match read_frame(&mut buf.as_slice()) {
        Err(WireError::FrameTooLarge { declared }) => {
            assert_eq!(declared, (MAX_FRAME_LEN + 1) as u64)
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }

    // Inner length lying (a key claiming u64::MAX bytes inside a tiny
    // body): ends at the body boundary → Truncated, no giant reservation.
    let mut body = Vec::new();
    body.extend_from_slice(&u64::MAX.to_le_bytes());
    body.extend_from_slice(b"tiny");
    let mut framed = Vec::new();
    write_frame(&mut framed, 0x03, &body).unwrap(); // Get opcode
    assert!(matches!(Request::read_from(&mut framed.as_slice()), Err(WireError::Truncated)));
}

#[test]
fn unknown_opcodes_are_typed() {
    let mut buf = Vec::new();
    write_frame(&mut buf, 0x55, &[]).unwrap();
    assert!(matches!(Request::read_from(&mut buf.as_slice()), Err(WireError::UnknownOpcode(0x55))));
    assert!(matches!(
        Response::read_from(&mut buf.as_slice()),
        Err(WireError::UnknownOpcode(0x55))
    ));
}

#[test]
fn trailing_bytes_in_a_frame_body_are_corrupt() {
    let mut body = Vec::new();
    lll_server::frame::encode_bytes(&mut body, b"key").unwrap();
    body.push(0xEE); // smuggled byte after the Get payload
    let mut framed = Vec::new();
    write_frame(&mut framed, 0x03, &body).unwrap();
    match Request::read_from(&mut framed.as_slice()) {
        Err(WireError::Corrupt(why)) => assert!(why.contains("trailing"), "{why}"),
        other => panic!("expected Corrupt(trailing), got {other:?}"),
    }
}

#[test]
fn response_error_and_display_are_informative() {
    let errs = [
        WireError::Truncated,
        WireError::BadMagic,
        WireError::UnsupportedVersion { found: 7 },
        WireError::UnknownOpcode(0xAB),
        WireError::FrameTooLarge { declared: 1 << 40 },
        WireError::Corrupt("inner".into()),
        WireError::Remote("server said no".into()),
    ];
    for e in errs {
        assert!(!e.to_string().is_empty());
    }
    let io = WireError::from(std::io::Error::other("socket on fire"));
    assert!(io.to_string().contains("socket on fire"));
    let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
    assert!(matches!(WireError::from(eof), WireError::Truncated));
}

#[test]
fn raw_frames_roundtrip_and_magic_is_pinned() {
    let frame = Frame { opcode: 0x03, body: b"abc".to_vec() };
    let mut buf = Vec::new();
    write_frame(&mut buf, frame.opcode, &frame.body).unwrap();
    // Byte-pinned header: magic, version 3 LE, opcode, length 3 LE.
    assert_eq!(&buf[..4], &WIRE_MAGIC);
    assert_eq!(&buf[4..6], &[3, 0]);
    assert_eq!(buf[6], 0x03);
    assert_eq!(&buf[7..11], &[3, 0, 0, 0]);
    assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), frame);
}
