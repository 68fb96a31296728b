//! The group-committed log: writers stage frames into a shared buffer,
//! one flusher thread writes and fsyncs them in batches.
//!
//! # Group commit
//!
//! An [`append`](Wal::append) takes the state mutex just long enough to
//! claim the next LSN and stage its frame, then wakes the flusher. The
//! flusher swaps the whole staged buffer out (writers immediately stage
//! into a fresh one), writes it with one `write_all`, and — under
//! [`FsyncPolicy::Always`] — issues **one** `fdatasync` covering every
//! record in the batch. Writers that need durability park on a condvar
//! until the synced LSN passes theirs ([`wait_durable`](Wal::wait_durable)),
//! so while one fsync is in flight the next batch is already forming:
//! N concurrent committers pay ~1/N of an fsync each instead of one
//! apiece. On this class of hardware an fsync is ~100µs and a buffered
//! write <1µs, which is where the group-commit throughput multiple in
//! `BENCH_wal.json` comes from.
//!
//! # Policies
//!
//! * [`Always`](FsyncPolicy::Always) — `append_durable`/`wait_durable`
//!   block until the record is fsync-durable. No acked write is ever
//!   lost to a crash.
//! * [`EveryMillis(n)`](FsyncPolicy::EveryMillis) — appends return after
//!   staging; the flusher fsyncs at least every `n` ms. A crash loses at
//!   most the tail since the last sync.
//! * [`Never`](FsyncPolicy::Never) — appends return after staging; data
//!   reaches the OS promptly but sync is left to the kernel. A crash
//!   loses whatever the kernel had not written back.
//!
//! Every policy keeps the *order* of records: LSNs are assigned under
//! the state mutex and batches are written in LSN order, so the on-disk
//! prefix is always an exact prefix of the append history.

use crate::record::encode_frame_into;
use crate::segment::{header_bytes, segment_file_name, SEGMENT_HEADER_LEN};
use crate::{WalError, WalRecovery};
use lll_obs::{Counter, Histogram};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When the flusher calls `fdatasync`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync every batch; committers block until their LSN is durable.
    Always,
    /// Fsync at least every this-many milliseconds; appends don't block.
    EveryMillis(u64),
    /// Never fsync (except on clean shutdown and explicit [`Wal::sync`]).
    Never,
}

/// Configuration for [`Wal::open`].
#[derive(Clone, Debug)]
pub struct WalOptions {
    /// The fsync policy (default [`FsyncPolicy::Always`]).
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment file once the current one reaches this
    /// size (default 8 MiB). Rotation happens at record boundaries
    /// (batches are cut into segment-sized chunks as they are written),
    /// so a segment can overshoot by at most one record.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self { fsync: FsyncPolicy::Always, segment_bytes: 8 << 20 }
    }
}

/// The log's shared instruments. Counters and histograms are
/// `Arc`-shared, so a clone reads the same live cells as the log: a
/// caller can keep one and watch the counts move. A durable server's
/// `metrics` verb reads them into its exposition.
#[derive(Clone)]
pub struct WalMetrics {
    /// Records appended (staged), across all policies.
    pub appends: Arc<Counter>,
    /// `fdatasync` calls issued by the flusher.
    pub fsyncs: Arc<Counter>,
    /// Segment rotations.
    pub rotations: Arc<Counter>,
    /// Segments deleted by checkpoint truncation.
    pub truncated_segments: Arc<Counter>,
    /// Records made durable per fsync — the group-commit batch size.
    /// `p50()` near 1 means no concurrency to amortize; higher means the
    /// flusher is batching.
    pub group_size: Arc<Histogram>,
    /// `fdatasync` latency, nanoseconds.
    pub fsync_latency_ns: Arc<Histogram>,
}

impl WalMetrics {
    fn new() -> Self {
        Self {
            appends: Arc::new(Counter::new()),
            fsyncs: Arc::new(Counter::new()),
            rotations: Arc::new(Counter::new()),
            truncated_segments: Arc::new(Counter::new()),
            group_size: Arc::new(Histogram::new(1, 1 << 20)),
            fsync_latency_ns: Arc::new(Histogram::latency_ns()),
        }
    }
}

/// Mutable log state, under the one mutex. Appends touch only the
/// staging fields; the flusher owns file writes (it clones the
/// `Arc<File>` and writes outside the lock).
struct State {
    /// Encoded frames staged since the flusher's last swap.
    staged: Vec<u8>,
    /// LSN of the first staged record (meaningful when `staged_count > 0`).
    staged_first: u64,
    /// Records currently staged.
    staged_count: u64,
    /// The next LSN to assign.
    next_lsn: u64,
    /// The active segment file, if one exists yet (created lazily on the
    /// first batch so an untouched log leaves no files behind).
    current: Option<Arc<File>>,
    /// Bytes in the active segment (header included).
    current_len: u64,
    /// Seal the active segment and start a new one before the next batch.
    needs_rotation: bool,
    /// Every live segment, sorted by base LSN (the active one last).
    segments: Vec<(u64, PathBuf)>,
    /// A sticky flusher failure: all later appends/waits fail fast with
    /// it, so the log never silently drops a record it acked.
    failed: Option<String>,
    /// An explicit [`Wal::sync`] wants an fsync regardless of policy.
    force_sync: bool,
}

struct Inner {
    dir: PathBuf,
    opts: WalOptions,
    state: Mutex<State>,
    /// Wakes the flusher (staged data, sync request, shutdown).
    work: Condvar,
    /// Wakes committers waiting on `synced_lsn`.
    durable: Condvar,
    /// Highest LSN the flusher has handed to the OS.
    written_lsn: AtomicU64,
    /// Highest LSN known fsync-durable.
    synced_lsn: AtomicU64,
    shutdown: AtomicBool,
    metrics: WalMetrics,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fail(&self, st: &mut State, what: &str, e: &std::io::Error) {
        if st.failed.is_none() {
            st.failed = Some(format!("{what}: {e}"));
        }
        // Every waiter must see the failure, not sleep forever.
        self.durable.notify_all();
    }

    /// Publish a new durable LSN. Taking the state lock around the store
    /// and notify closes the lost-wakeup window against
    /// `block_until_synced`, whose predicate check runs under the same
    /// lock.
    fn publish_synced(&self, lsn: u64) {
        let _guard = self.lock();
        self.synced_lsn.store(lsn, Ordering::Release);
        self.durable.notify_all();
    }
}

/// The group-committed, segment-rotating write-ahead log. See the module
/// docs for the commit protocol; see [`crate::audit`](mod@crate::audit) for the offline
/// audit/repair surface over the same files.
pub struct Wal {
    inner: Arc<Inner>,
    flusher: Option<JoinHandle<()>>,
}

impl Wal {
    /// Open (or create) the log in `dir` with LSNs starting at 1. See
    /// [`open_at`](Self::open_at).
    pub fn open(dir: impl AsRef<Path>, opts: WalOptions) -> Result<(Self, WalRecovery), WalError> {
        Self::open_at(dir, opts, 1)
    }

    /// Open (or create) the log in `dir`, recovering whatever valid
    /// prefix is on disk. `start_lsn` seats the LSN clock when the log is
    /// empty (a [`DurableMap`](crate::DurableMap) restored from a
    /// checkpoint at LSN `c` passes `c + 1` so LSNs continue across the
    /// truncation).
    ///
    /// Recovery is torn-tail-tolerant: a frame cut short, checksum-failed,
    /// or otherwise unusable **in the last segment** is the normal residue
    /// of a crash and is truncated away here (a final segment without a
    /// whole header is deleted). Damage anywhere *earlier* in the chain —
    /// a torn frame with valid segments after it, or a missing segment
    /// ([`WalError::Gap`]) — is not something a crash can cause and is
    /// refused; run [`audit`](crate::audit::audit) /
    /// [`repair`](crate::audit::repair) to inspect and explicitly accept
    /// the loss.
    pub fn open_at(
        dir: impl AsRef<Path>,
        opts: WalOptions,
        start_lsn: u64,
    ) -> Result<(Self, WalRecovery), WalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(WalError::Io)?;
        let segs = crate::segment::list_segments(&dir)?;
        let mut recovery = WalRecovery::default();
        let mut chain: Vec<(u64, PathBuf)> = Vec::new();
        let mut next_expected: Option<u64> = None;
        let mut last_lsn: Option<u64> = None;
        for (i, (name_base, path)) in segs.iter().enumerate() {
            let is_last = i == segs.len() - 1;
            let scan = crate::segment::scan_segment(path)?;
            if scan.valid_len > 0 && scan.base_lsn != *name_base {
                return Err(WalError::Corrupt(format!(
                    "segment {path:?} is named for base {name_base} but its header says {}",
                    scan.base_lsn
                )));
            }
            if let Some(reason) = &scan.torn {
                if !is_last {
                    return Err(WalError::Corrupt(format!(
                        "segment {path:?} is damaged ({reason}) but later segments exist; \
                         run repair to truncate the chain there"
                    )));
                }
                // The crash-normal case: truncate the torn tail (or drop
                // a segment that never got a whole header).
                recovery.truncated_bytes += scan.file_len - scan.valid_len;
                if scan.valid_len == 0 {
                    std::fs::remove_file(path).map_err(WalError::Io)?;
                    recovery.removed_segments += 1;
                    continue;
                }
                let f = OpenOptions::new().write(true).open(path).map_err(WalError::Io)?;
                f.set_len(scan.valid_len).map_err(WalError::Io)?;
                f.sync_data().map_err(WalError::Io)?;
            }
            if let Some(expected) = next_expected {
                if scan.base_lsn != expected {
                    return Err(WalError::Gap { after: expected - 1, next: scan.base_lsn });
                }
            }
            if recovery.first_lsn.is_none() && scan.records > 0 {
                recovery.first_lsn = Some(scan.base_lsn);
            }
            next_expected = Some(scan.base_lsn + scan.records);
            if scan.records > 0 {
                last_lsn = scan.last_lsn;
            }
            recovery.records += scan.records;
            chain.push((scan.base_lsn, path.clone()));
        }
        recovery.segments = chain.len();
        recovery.last_lsn = last_lsn.unwrap_or(0);

        let next_lsn = next_expected.unwrap_or(0).max(start_lsn).max(1);
        let (current, current_len) = match chain.last() {
            Some((_, path)) => {
                let f = OpenOptions::new().append(true).open(path).map_err(WalError::Io)?;
                let len = f.metadata().map_err(WalError::Io)?.len();
                (Some(Arc::new(f)), len)
            }
            None => (None, 0),
        };
        let needs_rotation = current.is_some() && current_len >= opts.segment_bytes;
        let inner = Arc::new(Inner {
            dir,
            opts,
            state: Mutex::new(State {
                staged: Vec::new(),
                staged_first: 0,
                staged_count: 0,
                next_lsn,
                current,
                current_len,
                needs_rotation,
                segments: chain,
                failed: None,
                force_sync: false,
            }),
            work: Condvar::new(),
            durable: Condvar::new(),
            written_lsn: AtomicU64::new(next_lsn - 1),
            synced_lsn: AtomicU64::new(next_lsn - 1),
            shutdown: AtomicBool::new(false),
            metrics: WalMetrics::new(),
        });
        let flusher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("lll-wal-flusher".into())
                .spawn(move || flusher_loop(&inner))
                .map_err(WalError::Io)?
        };
        Ok((Self { inner, flusher: Some(flusher) }, recovery))
    }

    /// Stage one record and wake the flusher; returns the record's LSN
    /// immediately. Under [`FsyncPolicy::Always`] the record is **not yet
    /// durable** — follow with [`wait_durable`](Self::wait_durable) (or
    /// use [`append_durable`](Self::append_durable)) before acking
    /// anything to a client. The split exists so a caller holding its own
    /// ordering lock (see `DurableMap`) can release it before blocking,
    /// which is what lets one fsync cover many committers.
    pub fn append(&self, payload: &[u8]) -> Result<u64, WalError> {
        let mut st = self.inner.lock();
        if let Some(msg) = &st.failed {
            return Err(WalError::Closed(msg.clone()));
        }
        let lsn = st.next_lsn;
        encode_frame_into(&mut st.staged, lsn, payload)?;
        st.next_lsn += 1;
        if st.staged_count == 0 {
            st.staged_first = lsn;
        }
        st.staged_count += 1;
        self.inner.metrics.appends.inc();
        drop(st);
        self.inner.work.notify_one();
        Ok(lsn)
    }

    /// Block until `lsn` is fsync-durable — a no-op under
    /// [`FsyncPolicy::EveryMillis`] and [`FsyncPolicy::Never`], whose
    /// contract is bounded loss, not per-op durability.
    pub fn wait_durable(&self, lsn: u64) -> Result<(), WalError> {
        if !matches!(self.inner.opts.fsync, FsyncPolicy::Always) {
            return Ok(());
        }
        self.block_until_synced(lsn)
    }

    /// [`append`](Self::append) + [`wait_durable`](Self::wait_durable).
    pub fn append_durable(&self, payload: &[u8]) -> Result<u64, WalError> {
        let lsn = self.append(payload)?;
        self.wait_durable(lsn)?;
        Ok(lsn)
    }

    /// Force everything appended so far onto stable storage, regardless
    /// of policy. Returns the LSN made durable.
    pub fn sync(&self) -> Result<u64, WalError> {
        let target = {
            let mut st = self.inner.lock();
            if let Some(msg) = &st.failed {
                return Err(WalError::Closed(msg.clone()));
            }
            st.force_sync = true;
            st.next_lsn - 1
        };
        self.inner.work.notify_one();
        self.block_until_synced(target)?;
        Ok(target)
    }

    fn block_until_synced(&self, lsn: u64) -> Result<(), WalError> {
        let mut st = self.inner.lock();
        loop {
            if self.inner.synced_lsn.load(Ordering::Acquire) >= lsn {
                return Ok(());
            }
            if let Some(msg) = &st.failed {
                return Err(WalError::Closed(msg.clone()));
            }
            st = self.inner.durable.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The most recently assigned LSN (`start_lsn - 1` before the first
    /// append).
    pub fn last_lsn(&self) -> u64 {
        self.inner.lock().next_lsn - 1
    }

    /// The highest LSN known fsync-durable.
    pub fn durable_lsn(&self) -> u64 {
        self.inner.synced_lsn.load(Ordering::Acquire)
    }

    /// The log's directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The log's shared instruments.
    pub fn metrics(&self) -> &WalMetrics {
        &self.inner.metrics
    }

    /// Replay every on-disk record with LSN > `after`, in LSN order.
    /// Intended for recovery, **before** concurrent appends begin — the
    /// scan reads the segment files directly.
    pub fn replay(
        &self,
        after: u64,
        mut f: impl FnMut(u64, Vec<u8>) -> Result<(), WalError>,
    ) -> Result<u64, WalError> {
        let segments = self.inner.lock().segments.clone();
        let last_on_disk = self.inner.written_lsn.load(Ordering::Acquire);
        let mut replayed = 0u64;
        for (i, (_, path)) in segments.iter().enumerate() {
            // Skip segments whose every record has LSN ≤ `after`: covered
            // by the next segment's base, or — for the active segment —
            // by the last written LSN.
            let covered = match segments.get(i + 1) {
                Some((next_base, _)) => *next_base <= after + 1,
                None => last_on_disk <= after,
            };
            if covered {
                continue;
            }
            crate::segment::scan_segment_with(path, |lsn, payload| {
                if lsn > after {
                    replayed += 1;
                    f(lsn, payload)
                } else {
                    Ok(())
                }
            })?;
        }
        Ok(replayed)
    }

    /// Delete every segment fully covered by a checkpoint at `lsn` (all
    /// its records have LSN ≤ `lsn` *and* a later segment exists — the
    /// active segment is never deleted). Returns segments removed.
    pub fn truncate_through(&self, lsn: u64) -> Result<u64, WalError> {
        let mut st = self.inner.lock();
        let mut removed = 0u64;
        while st.segments.len() >= 2 {
            let covered = match st.segments.get(1) {
                Some((next_base, _)) => *next_base <= lsn + 1,
                None => false,
            };
            if !covered {
                break;
            }
            let (_, path) = st.segments.remove(0);
            std::fs::remove_file(&path).map_err(WalError::Io)?;
            removed += 1;
        }
        self.inner.metrics.truncated_segments.add(removed);
        Ok(removed)
    }

    /// Total bytes currently occupied by the log: segment files plus the
    /// staged-but-unwritten tail.
    pub fn disk_bytes(&self) -> u64 {
        let st = self.inner.lock();
        st.segments
            .iter()
            .filter_map(|(_, p)| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum::<u64>()
            + st.staged.len() as u64
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.inner.dir)
            .field("last_lsn", &self.last_lsn())
            .field("durable_lsn", &self.durable_lsn())
            .finish_non_exhaustive()
    }
}

impl Drop for Wal {
    /// Clean shutdown: drain everything staged, write it, fsync it
    /// (whatever the policy — a graceful exit should not lose the tail),
    /// and join the flusher.
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work.notify_all();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

/// How long the flusher sleeps waiting for work before re-checking timed
/// syncs and shutdown.
const FLUSHER_TICK: Duration = Duration::from_millis(20);

fn flusher_loop(inner: &Inner) {
    let mut spare: Vec<u8> = Vec::new();
    let mut last_sync = Instant::now();
    let mut unsynced_records = 0u64;
    loop {
        let mut st = inner.lock();
        let timed_sync_due = |unsynced: u64, last: Instant| match inner.opts.fsync {
            FsyncPolicy::EveryMillis(ms) => {
                unsynced > 0 && last.elapsed() >= Duration::from_millis(ms)
            }
            _ => false,
        };
        if !inner.shutdown.load(Ordering::SeqCst)
            && st.staged_count == 0
            && !st.force_sync
            && !timed_sync_due(unsynced_records, last_sync)
        {
            // Idle: sleep until woken or the next timed-sync deadline.
            let tick = match inner.opts.fsync {
                FsyncPolicy::EveryMillis(ms) if unsynced_records > 0 => {
                    Duration::from_millis(ms).saturating_sub(last_sync.elapsed())
                }
                _ => FLUSHER_TICK,
            };
            let (guard, _) = inner
                .work
                .wait_timeout(st, tick.clamp(Duration::from_millis(1), FLUSHER_TICK.max(tick)))
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        let final_pass = inner.shutdown.load(Ordering::SeqCst);
        if st.failed.is_some() {
            if final_pass {
                return;
            }
            drop(st);
            std::thread::sleep(FLUSHER_TICK);
            continue;
        }

        // Swap the staged buffer out and write it outside the lock, in
        // segment-bounded chunks cut at frame boundaries: records never
        // straddle files, and one huge batch (fast writers, lazy
        // policies) cannot blow a segment past the rotation threshold by
        // more than a single record.
        let batch = std::mem::replace(&mut st.staged, std::mem::take(&mut spare));
        let batch_records = st.staged_count;
        let batch_first = st.staged_first;
        st.staged_count = 0;
        let force = std::mem::take(&mut st.force_sync);
        drop(st);

        let mut wrote = false;
        let mut io_failed = false;
        let mut off = 0usize;
        let mut consumed = 0u64;
        while consumed < batch_records {
            // Open or rotate under the lock; each chunk's base LSN is the
            // first record it carries. Sealing the previous segment
            // fsyncs it, so a later sync of `current` alone suffices.
            let (file, room) = {
                let mut st = inner.lock();
                if st.current.is_none() || st.needs_rotation {
                    let base = batch_first + consumed;
                    let sealed = st.current.take();
                    if let Err(e) = open_segment(inner, &mut st, base, sealed) {
                        inner.fail(&mut st, "segment rotation", &e);
                        io_failed = true;
                        break;
                    }
                }
                // `current` is Some here: just opened or still live.
                (st.current.clone(), inner.opts.segment_bytes.saturating_sub(st.current_len))
            };
            let Some(file) = file else { break };
            let (end, chunk_records) = chunk_end(&batch, off, room);
            let chunk = &batch[off..end];
            let mut writer: &File = &file;
            if let Err(e) = writer.write_all(chunk) {
                let mut st = inner.lock();
                inner.fail(&mut st, "segment write", &e);
                io_failed = true;
                break;
            }
            wrote = true;
            consumed += chunk_records;
            unsynced_records += chunk_records;
            inner.written_lsn.store(batch_first + consumed - 1, Ordering::Release);
            off = end;
            let mut st = inner.lock();
            st.current_len += chunk.len() as u64;
            if st.current_len >= inner.opts.segment_bytes {
                st.needs_rotation = true;
            }
        }
        if io_failed {
            continue;
        }
        let file = inner.lock().current.clone();

        let written = inner.written_lsn.load(Ordering::Acquire);
        let want_sync = force
            || final_pass
            || match inner.opts.fsync {
                FsyncPolicy::Always => wrote,
                _ => timed_sync_due(unsynced_records, last_sync),
            };
        if want_sync && inner.synced_lsn.load(Ordering::Acquire) < written {
            if let Some(f) = &file {
                let t = Instant::now();
                if let Err(e) = f.sync_data() {
                    let mut st = inner.lock();
                    inner.fail(&mut st, "fsync", &e);
                    continue;
                }
                inner.metrics.fsync_latency_ns.record(t.elapsed().as_nanos() as u64);
                inner.metrics.fsyncs.inc();
                if unsynced_records > 0 {
                    inner.metrics.group_size.record(unsynced_records);
                }
                unsynced_records = 0;
                last_sync = Instant::now();
            }
            inner.publish_synced(written);
        } else if want_sync {
            // A sync was requested but nothing is behind: publish so
            // waiters re-check and return.
            inner.publish_synced(written);
        }

        // Shutdown check and buffer reuse (segment growth and rotation
        // were accounted per chunk above).
        {
            let st = inner.lock();
            if final_pass && st.staged_count == 0 {
                // Shutdown with nothing staged since the swap: done.
                inner.durable.notify_all();
                return;
            }
        }
        spare = batch;
        spare.clear();
    }
}

/// Cut point for the next write chunk: as many whole frames as fit in
/// `room` bytes — but always at least one, so a record larger than a
/// segment still lands (that segment just overshoots, as the
/// [`WalOptions::segment_bytes`] docs allow). Frames were encoded by
/// [`Wal::append`], so the length prefixes are trusted here.
fn chunk_end(batch: &[u8], off: usize, room: u64) -> (usize, u64) {
    let mut end = off;
    let mut records = 0u64;
    while end < batch.len() {
        let body = u32::from_le_bytes([batch[end], batch[end + 1], batch[end + 2], batch[end + 3]]);
        let frame = 8 + body as usize;
        if records > 0 && (end - off + frame) as u64 > room {
            break;
        }
        end += frame;
        records += 1;
    }
    (end, records)
}

/// Seal `sealed` (fsync its final contents) and create the next segment
/// with `base` as its base LSN. Called with the state lock held; the
/// file operations are cheap relative to rotation frequency.
fn open_segment(
    inner: &Inner,
    st: &mut State,
    base: u64,
    sealed: Option<Arc<File>>,
) -> std::io::Result<()> {
    if let Some(old) = sealed {
        old.sync_data()?;
        inner.metrics.rotations.inc();
    }
    let path = inner.dir.join(segment_file_name(base));
    let mut f = OpenOptions::new().create_new(true).append(true).open(&path)?;
    f.write_all(&header_bytes(base))?;
    st.segments.push((base, path));
    st.current = Some(Arc::new(f));
    st.current_len = SEGMENT_HEADER_LEN;
    st.needs_rotation = false;
    Ok(())
}
