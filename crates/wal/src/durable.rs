//! [`DurableMap`]: log-then-apply over the sharded map.
//!
//! # Commit protocol
//!
//! Every mutation takes the **commit lock**, appends its [`WalOp`] to the
//! log, applies it to the in-memory [`ShardedMap`], and releases the
//! lock — so the log's LSN order *is* the apply order, and replay
//! reconstructs exactly the state that was live. Only then, outside the
//! lock, does the committer block on [`Wal::wait_durable`]: the lock is
//! free while the fsync is in flight, which is what lets the flusher
//! group many committers' records under one `fdatasync` (the whole point
//! of group commit). Reads never touch the commit lock — they go straight
//! to the sharded map's read path (a directory load, then one shared
//! shard lock).
//!
//! # Checkpoints and recovery
//!
//! [`checkpoint`](DurableMap::checkpoint) quiesces writers (the same
//! commit lock), snapshots the map to `checkpoint-<lsn>.snap` on the
//! `persist` format (temp file → fsync → rename → directory fsync), then
//! truncates every log segment the snapshot covers — which is what keeps
//! disk usage bounded under sustained churn. [`open`](DurableMap::open)
//! walks checkpoints newest-first, restores the first one that parses,
//! replays the log suffix with LSN beyond it, and refuses (typed
//! [`WalError::Gap`]) if the log starts later than the checkpoint can
//! explain — a missing-history hole must never become silent data loss.

use crate::record::WalOp;
use crate::wal::{Wal, WalOptions};
use crate::{WalError, WalRecovery};
use lll_api::persist::Codec;
use lll_obs::TraceKind;
use lll_sharded::{ShardedBuilder, ShardedMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration for [`DurableMap::open`].
#[derive(Clone, Debug)]
pub struct DurableOptions {
    /// The log's own knobs (fsync policy, segment size).
    pub wal: WalOptions,
    /// How many checkpoint snapshots to keep on disk (default 2: the
    /// newest plus one fallback in case the newest is unreadable).
    pub keep_checkpoints: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self { wal: WalOptions::default(), keep_checkpoints: 2 }
    }
}

/// What [`DurableMap::open`] recovered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurableRecovery {
    /// LSN of the checkpoint restored (0 when starting empty).
    pub checkpoint_lsn: u64,
    /// Checkpoint files that failed to parse and were skipped in favor
    /// of an older one.
    pub checkpoints_skipped: usize,
    /// Log records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Entries live after recovery.
    pub entries: usize,
    /// What the log layer itself found (torn-tail truncation etc.).
    pub wal: WalRecovery,
}

/// What one [`DurableMap::checkpoint`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The LSN the checkpoint covers (every record ≤ it is in the file).
    pub lsn: u64,
    /// Entries written.
    pub entries: usize,
    /// The snapshot file.
    pub path: PathBuf,
    /// Log segments truncated away behind it.
    pub truncated_segments: u64,
    /// Older checkpoint files garbage-collected.
    pub removed_checkpoints: usize,
}

/// The file name of the checkpoint covering `lsn`. Zero-padded like
/// segment names so lexicographic order is LSN order.
pub fn checkpoint_file_name(lsn: u64) -> String {
    format!("checkpoint-{lsn:020}.snap")
}

/// Parse a checkpoint file name back to its LSN.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("checkpoint-")?.strip_suffix(".snap")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(WalError::Io)? {
        let entry = entry.map_err(WalError::Io)?;
        if let Some(lsn) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
            out.push((lsn, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(lsn, _)| lsn);
    Ok(out)
}

/// Best-effort fsync of the directory itself, so renames and unlinks
/// inside it survive a crash. Ignored on platforms where opening a
/// directory for sync is not supported.
fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// A durably-logged [`ShardedMap`]: every mutation is written (and,
/// under [`FsyncPolicy::Always`](crate::FsyncPolicy::Always), fsynced)
/// to the WAL before it is applied and acknowledged. See the module docs
/// for the commit protocol and recovery story.
pub struct DurableMap<K: Ord + Clone, V> {
    map: Arc<ShardedMap<K, V>>,
    wal: Wal,
    /// Serializes append+apply so replay order equals apply order.
    commit: Mutex<()>,
    dir: PathBuf,
    checkpoint_lsn: AtomicU64,
    keep_checkpoints: usize,
}

impl<K, V> DurableMap<K, V>
where
    K: Ord + Clone + Codec,
    V: Codec,
{
    /// Open (or create) a durable map in `dir`: restore the newest
    /// checkpoint that parses, replay the logged suffix, and return the
    /// recovered map plus a [`DurableRecovery`] describing what was
    /// found. `builder` shapes the map only when no checkpoint exists —
    /// a restored snapshot carries its own policy.
    pub fn open(
        dir: impl AsRef<Path>,
        opts: DurableOptions,
        builder: &ShardedBuilder,
    ) -> Result<(Self, DurableRecovery), WalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(WalError::Io)?;
        let mut recovery = DurableRecovery::default();

        // Sweep any temp file a crash mid-checkpoint left behind; the
        // rename never happened, so it was never the checkpoint of record.
        for entry in std::fs::read_dir(&dir).map_err(WalError::Io)? {
            let entry = entry.map_err(WalError::Io)?;
            if entry.file_name().to_str().is_some_and(|n| n.ends_with(".tmp")) {
                let _ = std::fs::remove_file(entry.path());
            }
        }

        // Newest checkpoint that parses wins; unreadable ones are skipped,
        // not fatal — the log behind the older fallback still replays us
        // to the present (or `Gap` reports honestly that it cannot).
        let mut restored: Option<(u64, ShardedMap<K, V>)> = None;
        for (lsn, path) in list_checkpoints(&dir)?.into_iter().rev() {
            let file = std::fs::File::open(&path).map_err(WalError::Io)?;
            let mut r = std::io::BufReader::new(file);
            match ShardedMap::read_snapshot(&mut r) {
                Ok(map) => {
                    restored = Some((lsn, map));
                    break;
                }
                Err(_) => recovery.checkpoints_skipped += 1,
            }
        }
        let (checkpoint_lsn, map) = match restored {
            Some((lsn, map)) => (lsn, map),
            None => (0, builder.build()),
        };
        recovery.checkpoint_lsn = checkpoint_lsn;

        let (wal, wal_recovery) = Wal::open_at(&dir, opts.wal, checkpoint_lsn + 1)?;
        if let Some(first) = wal_recovery.first_lsn {
            if first > checkpoint_lsn + 1 {
                // The log's history starts after the checkpoint ends:
                // records in between are gone (e.g. the newest checkpoint
                // was unreadable and the log behind it already truncated).
                return Err(WalError::Gap { after: checkpoint_lsn, next: first });
            }
        }
        recovery.wal = wal_recovery;
        recovery.replayed = wal.replay(checkpoint_lsn, |_, payload| {
            let op = WalOp::<K, V>::decode_from(&mut payload.as_slice())?;
            match op {
                WalOp::Insert { key, value } => {
                    map.insert(key, value);
                }
                WalOp::Remove { key } => {
                    map.remove(&key);
                }
                WalOp::Batch { entries } => {
                    map.extend_from_unsorted(entries);
                }
            }
            Ok(())
        })?;
        recovery.entries = map.len();

        Ok((
            Self {
                map: Arc::new(map),
                wal,
                commit: Mutex::new(()),
                dir,
                checkpoint_lsn: AtomicU64::new(checkpoint_lsn),
                keep_checkpoints: opts.keep_checkpoints.max(1),
            },
            recovery,
        ))
    }

    /// Insert, durably: logged (and fsync-acknowledged under `Always`)
    /// before this returns. Returns the previous value, like
    /// [`ShardedMap::insert`].
    pub fn insert(&self, key: K, value: V) -> Result<Option<V>, WalError> {
        let op = WalOp::Insert { key, value };
        let mut buf = Vec::new();
        op.encode_to(&mut buf)?;
        let guard = self.commit.lock().unwrap_or_else(|e| e.into_inner());
        let lsn = self.wal.append(&buf)?;
        let WalOp::Insert { key, value } = op else { unreachable!() };
        let prev = self.map.insert(key, value);
        drop(guard);
        self.wal.wait_durable(lsn)?;
        Ok(prev)
    }

    /// Remove, durably. Returns the removed value, like
    /// [`ShardedMap::remove`].
    pub fn remove(&self, key: &K) -> Result<Option<V>, WalError> {
        let op = WalOp::<K, V>::Remove { key: key.clone() };
        let mut buf = Vec::new();
        op.encode_to(&mut buf)?;
        let guard = self.commit.lock().unwrap_or_else(|e| e.into_inner());
        let lsn = self.wal.append(&buf)?;
        let prev = self.map.remove(key);
        drop(guard);
        self.wal.wait_durable(lsn)?;
        Ok(prev)
    }

    /// Insert a batch as **one** log record, durably. Returns the number
    /// of keys that were new, like [`ShardedMap::extend_from_unsorted`].
    pub fn batch_insert(&self, entries: Vec<(K, V)>) -> Result<usize, WalError> {
        if entries.is_empty() {
            return Ok(0);
        }
        let op = WalOp::Batch { entries };
        let mut buf = Vec::new();
        op.encode_to(&mut buf)?;
        let guard = self.commit.lock().unwrap_or_else(|e| e.into_inner());
        let lsn = self.wal.append(&buf)?;
        let WalOp::Batch { entries } = op else { unreachable!() };
        let added = self.map.extend_from_unsorted(entries);
        drop(guard);
        self.wal.wait_durable(lsn)?;
        Ok(added)
    }

    /// Snapshot the map and truncate the log behind it. Writers are
    /// quiesced for the duration (reads are unaffected); the snapshot is
    /// crash-safe — temp file, fsync, rename, directory fsync — and the
    /// log is only truncated once the rename has landed. Records a
    /// [`TraceKind::Checkpoint`] event in the map's op-trace ring.
    pub fn checkpoint(&self) -> Result<CheckpointReport, WalError> {
        let guard = self.commit.lock().unwrap_or_else(|e| e.into_inner());
        self.wal.sync()?;
        let lsn = self.wal.last_lsn();
        let entries = self.map.len();
        let tmp = self.dir.join(format!("checkpoint-{lsn:020}.tmp"));
        let path = self.dir.join(checkpoint_file_name(lsn));
        {
            let file = std::fs::File::create(&tmp).map_err(WalError::Io)?;
            let mut w = std::io::BufWriter::new(file);
            self.map.write_snapshot(&mut w)?;
            w.flush().map_err(WalError::Io)?;
            w.get_ref().sync_all().map_err(WalError::Io)?;
        }
        std::fs::rename(&tmp, &path).map_err(WalError::Io)?;
        sync_dir(&self.dir);
        self.checkpoint_lsn.store(lsn, Ordering::Release);
        drop(guard);

        // Behind the durable checkpoint: drop covered segments and old
        // snapshots. Neither needs the commit lock.
        let truncated_segments = self.wal.truncate_through(lsn)?;
        let mut removed_checkpoints = 0;
        let checkpoints = list_checkpoints(&self.dir)?;
        let keep_from = checkpoints.len().saturating_sub(self.keep_checkpoints);
        for (_, old) in &checkpoints[..keep_from] {
            std::fs::remove_file(old).map_err(WalError::Io)?;
            removed_checkpoints += 1;
        }
        if truncated_segments > 0 || removed_checkpoints > 0 {
            sync_dir(&self.dir);
        }
        self.map.trace().record(TraceKind::Checkpoint, lsn, entries as u64, truncated_segments);
        Ok(CheckpointReport { lsn, entries, path, truncated_segments, removed_checkpoints })
    }

    /// The in-memory map, for the read path (and for snapshot-serving:
    /// reads need no log). Mutating it directly bypasses the log — use
    /// the durable mutators.
    pub fn map(&self) -> &Arc<ShardedMap<K, V>> {
        &self.map
    }

    /// The log underneath, for metrics, audit, and tests.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The LSN of the newest checkpoint taken or restored (0 if none).
    pub fn checkpoint_lsn(&self) -> u64 {
        self.checkpoint_lsn.load(Ordering::Acquire)
    }

    /// The directory holding segments and checkpoints.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl<K: Ord + Clone, V> std::fmt::Debug for DurableMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableMap")
            .field("dir", &self.dir)
            .field("len", &self.map.len())
            .field("checkpoint_lsn", &self.checkpoint_lsn.load(Ordering::Acquire))
            .field("wal", &self.wal)
            .finish_non_exhaustive()
    }
}
