//! The durable-serving rungs' pieces: the prepared log directory a
//! restart recovers from, the bench-owned echo reference, and each op in
//! wire form, sent by a client or applied to a `DurableMap` in process.

use crate::gen::{Entry, Inputs, Op, Out, SCAN_LEN};
use lll_server::{Client, DurableKvMap, ServerHandle, WireError};
use lll_sharded::ShardedBuilder;
use lll_wal::{DurableOptions, FsyncPolicy, WalError, WalOptions};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// Ops between in-band checkpoints on the durable layers.
pub const CHECKPOINT_EVERY: usize = 1 << 13;

/// A key on the wire: big-endian, so byte order is numeric order.
pub fn wire_key(key: u64) -> Vec<u8> {
    key.to_be_bytes().to_vec()
}

/// Decode a wire key.
pub fn unwire_key(key: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(key.try_into().ok()?))
}

/// Decode a wire value.
pub fn unwire_value(value: &[u8]) -> Option<[u8; 32]> {
    value.try_into().ok()
}

/// Decode wire entries; `None` if any entry is malformed.
pub fn unwire_entries(entries: &[(Vec<u8>, Vec<u8>)]) -> Option<Vec<Entry>> {
    entries.iter().map(|(k, v)| Some((unwire_key(k)?, unwire_value(v)?))).collect()
}

/// Entries in wire form.
pub fn wire_entries(entries: &[Entry]) -> Vec<(Vec<u8>, Vec<u8>)> {
    entries.iter().map(|(k, v)| (wire_key(*k), v.to_vec())).collect()
}

/// Write the restart directory: a checkpoint holding the preload, then
/// exactly `inputs.history.len()` logged records behind it.
///
/// The preload lands as one batch record in a deliberately small first
/// segment; one more insert rotates to a second segment, so the
/// checkpoint that follows truncates the batch away and a restart reads
/// only the checkpoint and the history. Writing uses `FsyncPolicy::Never`
/// (drop syncs the tail); restarts use the default options.
pub fn prepare(dir: &Path, inputs: &Inputs) -> Result<(), String> {
    let opts = DurableOptions {
        wal: WalOptions { fsync: FsyncPolicy::Never, segment_bytes: 1 << 20 },
        ..DurableOptions::default()
    };
    let (map, _) = DurableKvMap::open(dir, opts, &ShardedBuilder::new())
        .map_err(|e| format!("prepare {}: {e}", dir.display()))?;
    let (last, rest) = inputs.preload.split_last().ok_or("empty preload")?;
    map.batch_insert(wire_entries(rest)).map_err(|e| format!("preload batch: {e}"))?;
    map.insert(wire_key(last.0), last.1.to_vec()).map_err(|e| format!("preload: {e}"))?;
    map.checkpoint().map_err(|e| format!("prepare checkpoint: {e}"))?;
    for op in &inputs.history {
        WireOp::new(op).apply(&map).map_err(|e| format!("history write: {e}"))?;
    }
    Ok(())
}

/// Copy the files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// The checkpoint file inside a prepared directory.
pub fn checkpoint_file(dir: &Path) -> Result<PathBuf, String> {
    std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "snap"))
        .ok_or_else(|| format!("no checkpoint in {}", dir.display()))
}

/// True if the served map holds exactly `expected`.
pub fn contents_match(handle: &ServerHandle, expected: &[Entry]) -> bool {
    unwire_entries(&handle.map().to_vec()).is_some_and(|got| got == expected)
}

/// A bench-owned echo peer: the bare loopback round trip the server rung
/// is compared with (`server.rtt_us`). Its thread answers 16-byte messages
/// until the connection closes.
pub struct Echo {
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
    buf: [u8; 16],
}

impl Echo {
    /// Bind a loopback listener, connect to it, and start the echo thread.
    pub fn start() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::Builder::new().name("bench-echo".into()).spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else { return };
            let _ = peer.set_nodelay(true);
            let mut buf = [0u8; 16];
            while peer.read_exact(&mut buf).is_ok() {
                if peer.write_all(&buf).is_err() {
                    break;
                }
            }
        })?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, thread: Some(thread), buf: [0u8; 16] })
    }

    /// One 16-byte round trip.
    pub fn round_trip(&mut self, seq: u64) -> std::io::Result<()> {
        self.buf[..8].copy_from_slice(&seq.to_le_bytes());
        self.stream.write_all(&self.buf)?;
        self.stream.read_exact(&mut self.buf)?;
        if self.buf[..8] != seq.to_le_bytes() {
            return Err(std::io::Error::other("echo returned a different message"));
        }
        Ok(())
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A durable rung's raw result, decoded to [`Out`] after timing.
pub enum Reply {
    /// `get`, `insert` (previous value) or `remove` (removed value).
    Val(Option<Vec<u8>>),
    /// A scan's entries.
    Scan(Vec<(Vec<u8>, Vec<u8>)>),
}

impl Reply {
    /// The result in oracle form; a malformed key or value is
    /// [`Out::Failed`].
    pub fn decode(self) -> Out {
        let decoded = match self {
            Reply::Val(None) => Some(Out::Val(None)),
            Reply::Val(Some(v)) => unwire_value(&v).map(|v| Out::Val(Some(v))),
            Reply::Scan(entries) => unwire_entries(&entries).map(Out::Scan),
        };
        decoded.unwrap_or(Out::Failed)
    }
}

/// An op with its wire-form arguments built ahead of timing.
pub struct WireOp {
    key: Vec<u8>,
    value: Vec<u8>,
    op: Op,
}

impl WireOp {
    /// Encode `op`'s arguments.
    pub fn new(op: &Op) -> Self {
        let value = match op {
            Op::Insert(_, v) => v.to_vec(),
            _ => Vec::new(),
        };
        WireOp { key: wire_key(op.key()), value, op: *op }
    }

    /// Send the op over `client`.
    pub fn call(&self, client: &mut Client) -> Result<Reply, WireError> {
        match self.op {
            Op::Get(_) => client.get(&self.key).map(Reply::Val),
            Op::Insert(..) => client.insert(&self.key, &self.value).map(Reply::Val),
            Op::Remove(_) => client.remove(&self.key).map(Reply::Val),
            Op::Scan(_) => client
                .range(Some(&self.key), None, SCAN_LEN as u64)
                .map(|(entries, _)| Reply::Scan(entries)),
        }
    }

    /// Apply the op to `map` in process. An insert moves the key and value
    /// into the map, so apply each `WireOp` once, after any `call`.
    pub fn apply(&mut self, map: &DurableKvMap) -> Result<Reply, WalError> {
        match self.op {
            Op::Get(_) => Ok(Reply::Val(map.map().get(&self.key))),
            Op::Insert(..) => {
                let (key, value) = (std::mem::take(&mut self.key), std::mem::take(&mut self.value));
                map.insert(key, value).map(Reply::Val)
            }
            Op::Remove(_) => map.remove(&self.key).map(Reply::Val),
            Op::Scan(_) => {
                let from: (Bound<&Vec<u8>>, _) = (Bound::Included(&self.key), Bound::Unbounded);
                Ok(Reply::Scan(map.map().range_limited::<Vec<u8>, _>(from, SCAN_LEN).0))
            }
        }
    }
}
