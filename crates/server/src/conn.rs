//! One connection's request loop: wait for a frame, dispatch the verb,
//! flush the response, repeat — closing only at request boundaries.
//!
//! Idle waiting is a `peek` under the configured read timeout, so a
//! connection parked between requests notices a drain within one poll
//! interval **without** consuming stream bytes; once the first byte of a
//! frame is visible, the frame is read to completion (the frame layer's
//! reads preserve progress across timeouts), processed, and answered —
//! a drain never tears a response in half and never drops a request the
//! server already started reading.

use crate::frame::{read_frame, WireError};
use crate::proto::{
    HealthReply, MetricsReply, Request, Response, TraceEventWire, TraceReply, VerbLatency, VERBS,
};
use crate::server::{KvMap, Shared};
use lll_obs::{push_histogram, push_meta, push_sample, TraceKind};
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write as _};
use std::net::TcpStream;
use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Serve one connection to completion (peer close, protocol error, or
/// drain boundary).
pub(crate) fn serve(stream: TcpStream, shared: &Shared) {
    shared.active_conns.fetch_add(1, Ordering::SeqCst);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.idle_poll));
    let Ok(write_half) = stream.try_clone() else {
        shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        return;
    };
    let mut writer = BufWriter::new(write_half);
    let reader = stream;
    loop {
        if !wait_for_request(&reader, shared) {
            break;
        }
        let request = match read_frame(&mut &reader).and_then(|f| Request::from_frame(&f)) {
            Ok(req) => req,
            Err(e) => {
                // A malformed frame desynchronizes the stream: answer with
                // the typed failure (best effort) and close.
                let resp = Response::Error(format!("protocol error: {e}"));
                let _ = resp.write_to(&mut writer).and_then(|()| Ok(writer.flush()?));
                break;
            }
        };
        shared.served_requests.fetch_add(1, Ordering::Relaxed);
        let verb = request.verb_index();
        let started = Instant::now();
        let (response, drain_after) = handle(request, shared);
        shared.obs.verbs[verb].record(started.elapsed().as_nanos() as u64);
        if response.write_to(&mut writer).and_then(|()| Ok(writer.flush()?)).is_err() {
            break;
        }
        if drain_after {
            shared.begin_drain();
            break;
        }
        // Drain boundary: the response above is flushed; nothing is owed.
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
    }
    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
}

/// Park until a frame's first byte is visible (true), the peer closes or
/// errors (false), or a drain begins while the connection is idle
/// (false). `peek` never consumes, so returning early loses nothing.
fn wait_for_request(stream: &TcpStream, shared: &Shared) -> bool {
    let mut probe = [0u8; 1];
    loop {
        match stream.peek(&mut probe) {
            Ok(0) => return false,
            Ok(_) => return true,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return false;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Dispatch one verb. The second component asks the caller to begin a
/// drain **after** the response is flushed.
fn handle(request: Request, shared: &Shared) -> (Response, bool) {
    let map = &shared.map;
    match request {
        Request::Health => (
            Response::Health(HealthReply {
                draining: shared.draining.load(Ordering::SeqCst),
                active_conns: shared.active_conns.load(Ordering::SeqCst),
                served_requests: shared.served_requests.load(Ordering::Relaxed),
                len: map.len() as u64,
            }),
            false,
        ),
        Request::Get(key) => (Response::Value(map.get(&key)), false),
        Request::Insert(key, value) => {
            // Durable mode: log-then-apply; the ack below is only written
            // after the record is (policy-)durable. Plain mode: in-memory.
            let resp = match &shared.durable {
                Some(d) => match d.insert(key, value) {
                    Ok(prev) => Response::Value(prev),
                    Err(e) => Response::Error(format!("wal insert: {e}")),
                },
                None => Response::Value(map.insert(key, value)),
            };
            (resp, false)
        }
        Request::Remove(key) => {
            let resp = match &shared.durable {
                Some(d) => match d.remove(&key) {
                    Ok(prev) => Response::Value(prev),
                    Err(e) => Response::Error(format!("wal remove: {e}")),
                },
                None => Response::Value(map.remove(&key)),
            };
            (resp, false)
        }
        Request::Contains(key) => (Response::Bool(map.contains_key(&key)), false),
        Request::Range { start, end, limit } => {
            let lo = match &start {
                Some(k) => Bound::Included(k),
                None => Bound::Unbounded,
            };
            let hi = match &end {
                Some(k) => Bound::Excluded(k),
                None => Bound::Unbounded,
            };
            let capped = limit.min(shared.cfg.range_limit_cap) as usize;
            let (entries, truncated) = map.range_limited::<Vec<u8>, _>((lo, hi), capped);
            (Response::Entries { entries, truncated }, false)
        }
        Request::BatchInsert(entries) => {
            let received = entries.len() as u64;
            let resp = match &shared.durable {
                Some(d) => match d.batch_insert(entries) {
                    Ok(landed) => Response::Batched { received, landed: landed as u64 },
                    Err(e) => Response::Error(format!("wal batch_insert: {e}")),
                },
                None => {
                    let landed = map.extend_from_unsorted(entries) as u64;
                    Response::Batched { received, landed }
                }
            };
            (resp, false)
        }
        Request::Snapshot { path } => {
            // In durable mode the verb is a checkpoint: snapshot into the
            // WAL directory + log truncation. A non-empty path still gets
            // the portable snapshot stream, on top.
            let resp = match &shared.durable {
                Some(d) => match d.checkpoint() {
                    Ok(_) if path.is_empty() => Response::Ok,
                    Ok(_) => snapshot_to(map, &path),
                    Err(e) => Response::Error(format!("checkpoint: {e}")),
                },
                None => snapshot_to(map, &path),
            };
            (resp, false)
        }
        Request::Drain { final_snapshot } => {
            if let Some(path) = final_snapshot {
                // A failed final snapshot refuses the drain: the operator
                // asked for durability first, and losing that silently
                // would defeat the point.
                if let failed @ Response::Error(_) = snapshot_to(map, &path) {
                    return (failed, false);
                }
            }
            shared.obs.trace.record(
                TraceKind::Drain,
                shared.served_requests.load(Ordering::Relaxed),
                shared.active_conns.load(Ordering::SeqCst),
                0,
            );
            (Response::Ok, true)
        }
        Request::Metrics => (Response::Metrics(metrics_reply(shared)), false),
        Request::Trace => {
            let events = shared
                .obs
                .trace
                .snapshot()
                .into_iter()
                .map(|e| TraceEventWire { seq: e.seq, kind: e.kind as u64, a: e.a, b: e.b, c: e.c })
                .collect();
            (Response::Trace(TraceReply { events }), false)
        }
    }
}

/// Assemble the `Metrics` reply: per-verb latency quantiles, the map's
/// counters and per-shard gauges, a durable server's WAL counters, and
/// the Prometheus text exposition of all of them. This is the only
/// producer of that text. Each counter is read once, into its reply
/// field, and the text renders that field. `docs/observability.md`
/// catalogs every family rendered here.
fn metrics_reply(shared: &Shared) -> MetricsReply {
    let stats = shared.map.stats();
    let wal = shared.durable.as_ref().map(|d| d.wal());
    let wm = wal.map(|w| w.metrics());
    let mut m = MetricsReply {
        verbs: VERBS
            .iter()
            .zip(&shared.obs.verbs)
            .map(|(name, h)| VerbLatency {
                verb: (*name).to_string(),
                count: h.count(),
                p50_ns: h.p50(),
                p95_ns: h.p95(),
                p99_ns: h.p99(),
                max_ns: h.max(),
            })
            .collect(),
        shard_lens: stats.shard_lens.iter().map(|&l| l as u64).collect(),
        shard_reads: stats.shard_reads,
        shard_writes: stats.shard_writes,
        splits: stats.splits,
        merges: stats.merges,
        batches: stats.batches,
        batched_entries: stats.batched_entries,
        total_moves: stats.total_moves,
        wal_appends: wm.map_or(0, |w| w.appends.get()),
        wal_fsyncs: wm.map_or(0, |w| w.fsyncs.get()),
        wal_rotations: wm.map_or(0, |w| w.rotations.get()),
        wal_truncated_segments: wm.map_or(0, |w| w.truncated_segments.get()),
        wal_durable_lsn: wal.map_or(0, |w| w.durable_lsn()),
        text: String::new(),
    };
    let t = &mut m.text;
    let latency = "lll_server_request_latency_ns";
    push_meta(t, latency, "histogram", "Wall-clock request handling latency per verb, nanoseconds");
    for (verb, h) in VERBS.iter().zip(&shared.obs.verbs) {
        push_histogram(t, latency, Some(("verb", verb)), h);
    }
    if let Some(w) = wm {
        let appends = "lll_wal_appends_total";
        push_meta(t, appends, "counter", "WAL records appended (staged for group commit)");
        push_sample(t, appends, &[], m.wal_appends);
        let fsyncs = "lll_wal_fsyncs_total";
        push_meta(t, fsyncs, "counter", "fdatasync calls issued by the WAL flusher");
        push_sample(t, fsyncs, &[], m.wal_fsyncs);
        push_meta(t, "lll_wal_rotations_total", "counter", "WAL segment rotations");
        push_sample(t, "lll_wal_rotations_total", &[], m.wal_rotations);
        let truncated = "lll_wal_truncated_segments_total";
        push_meta(t, truncated, "counter", "WAL segments deleted by checkpoint truncation");
        push_sample(t, truncated, &[], m.wal_truncated_segments);
        let group = "lll_wal_group_size";
        push_meta(
            t,
            group,
            "histogram",
            "Records made durable per fsync (group-commit batch size)",
        );
        push_histogram(t, group, None, &w.group_size);
        let fsync_ns = "lll_wal_fsync_latency_ns";
        push_meta(t, fsync_ns, "histogram", "WAL fdatasync latency, nanoseconds");
        push_histogram(t, fsync_ns, None, &w.fsync_latency_ns);
    }
    push_meta(t, "lll_shard_len", "gauge", "Entries per shard, in key order");
    for (i, len) in m.shard_lens.iter().enumerate() {
        push_sample(t, "lll_shard_len", &[("shard", &i.to_string())], *len);
    }
    push_meta(t, "lll_shard_reads_total", "counter", "Point reads served per shard");
    for (i, reads) in m.shard_reads.iter().enumerate() {
        push_sample(t, "lll_shard_reads_total", &[("shard", &i.to_string())], *reads);
    }
    push_meta(t, "lll_shard_writes_total", "counter", "Point writes served per shard");
    for (i, writes) in m.shard_writes.iter().enumerate() {
        push_sample(t, "lll_shard_writes_total", &[("shard", &i.to_string())], *writes);
    }
    push_meta(t, "lll_shard_splits_total", "counter", "Shard splits since construction");
    push_sample(t, "lll_shard_splits_total", &[], m.splits);
    push_meta(t, "lll_shard_merges_total", "counter", "Shard merges since construction");
    push_sample(t, "lll_shard_merges_total", &[], m.merges);
    push_meta(t, "lll_batches_total", "counter", "Bulk batches landed since construction");
    push_sample(t, "lll_batches_total", &[], m.batches);
    push_meta(t, "lll_batched_entries_total", "counter", "Entries landed through batches");
    push_sample(t, "lll_batched_entries_total", &[], m.batched_entries);
    push_meta(t, "lll_moves_total", "counter", "Element moves across shard backends");
    push_sample(t, "lll_moves_total", &[], m.total_moves);
    m
}

/// Stream a snapshot to `path` under the maintenance barrier (see
/// `ShardedMap::write_snapshot`): one atomic picture even under
/// concurrent writers.
fn snapshot_to(map: &KvMap, path: &str) -> Response {
    let file = match File::create(path) {
        Ok(f) => f,
        Err(e) => return Response::Error(format!("snapshot: create {path:?}: {e}")),
    };
    let mut w = BufWriter::new(file);
    match map.write_snapshot(&mut w).map_err(WireError::from).and_then(|()| Ok(w.flush()?)) {
        Ok(()) => Response::Ok,
        Err(e) => Response::Error(format!("snapshot: write {path:?}: {e}")),
    }
}
