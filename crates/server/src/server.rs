//! The server runtime: a `std::net` accept loop feeding a bounded pool of
//! worker threads, each serving one connection at a time.
//!
//! The workspace builds offline — no tokio — so concurrency is the
//! classic thread-per-connection shape with a hard cap: `workers` threads
//! serve connections; up to `pending_conns` accepted sockets wait in a
//! queue; past that, new connections are refused with a typed `Error`
//! frame instead of an unbounded backlog. Idle workers park on a condvar;
//! idle connections park in a short read-timeout poll so a drain is
//! noticed within [`ServerConfig::idle_poll`] even with no traffic.
//!
//! # Drain protocol
//!
//! [`ServerHandle::drain`] (or the wire `Drain` verb):
//!
//! 1. sets the drain flag — `Health` starts reporting `draining`,
//! 2. wakes the accept loop (a self-connection), which stops accepting,
//! 3. lets every in-flight request complete and its response flush —
//!    workers close their connection at the next request *boundary*,
//!    never mid-response,
//! 4. optionally streams a final snapshot under the maintenance barrier.
//!
//! [`ServerHandle::join`] then reaps every thread. Responses already owed
//! are never dropped: the connection loop re-checks the flag only after
//! the current response is flushed.

use crate::conn;
use crate::proto::VERBS;
use lll_obs::{Histogram, TraceRing};
use lll_sharded::{ShardedBuilder, ShardedMap};
use lll_wal::{DurableMap, DurableOptions, DurableRecovery, WalError};
use std::collections::VecDeque;
use std::io::{self, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// The concrete map a server serves: opaque byte keys and values in
/// lexicographic key order.
pub type KvMap = ShardedMap<Vec<u8>, Vec<u8>>;

/// The durable flavor of [`KvMap`]: the same map behind a write-ahead
/// log (see [`Server::start_durable`]).
pub type DurableKvMap = DurableMap<Vec<u8>, Vec<u8>>;

/// Tuning knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Worker threads — the cap on concurrently *served* connections.
    pub workers: usize,
    /// Accepted-but-unserved connection queue cap; past it, connections
    /// are refused with a typed busy `Error` frame.
    pub pending_conns: usize,
    /// Read-timeout granularity for idle connections and parked workers:
    /// the upper bound on how long a drain waits for an *idle* peer.
    pub idle_poll: Duration,
    /// Hard cap applied to every `Range` request's limit, so one scan
    /// cannot clone an unbounded slice of the map into a frame.
    pub range_limit_cap: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            pending_conns: 64,
            idle_poll: Duration::from_millis(20),
            range_limit_cap: 1 << 16,
        }
    }
}

/// The server's own instruments: one request-latency histogram per verb,
/// and a handle on the map's structural-event trace ring. Recording is
/// lock-free from every worker; `conn::metrics_reply` renders them.
pub(crate) struct ServerObs {
    /// `verbs[Request::verb_index()]` is that verb's latency histogram.
    pub(crate) verbs: [Histogram; VERBS.len()],
    pub(crate) trace: Arc<TraceRing>,
}

/// State shared by the accept loop, the workers, and the handle.
pub(crate) struct Shared {
    pub(crate) map: Arc<KvMap>,
    /// Present when the server runs in durable mode: mutating verbs are
    /// routed through the log, and `snapshot` becomes a checkpoint.
    pub(crate) durable: Option<Arc<DurableKvMap>>,
    pub(crate) cfg: ServerConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) draining: AtomicBool,
    pub(crate) active_conns: AtomicU64,
    pub(crate) served_requests: AtomicU64,
    pub(crate) refused_conns: AtomicU64,
    pub(crate) obs: ServerObs,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
}

impl Shared {
    /// Begin draining: flip the flag, wake the accept loop with a
    /// throwaway self-connection, wake every parked worker.
    pub(crate) fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
        self.queue_cv.notify_all();
    }

    fn pop_conn(&self) -> Option<TcpStream> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(stream) = q.pop_front() {
                return Some(stream);
            }
            if self.draining.load(Ordering::SeqCst) {
                return None;
            }
            q = self
                .queue_cv
                .wait_timeout(q, self.cfg.idle_poll)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// The running server: a factory with one entry point, [`Server::start`].
pub struct Server;

impl Server {
    /// Bind `cfg.addr` and start serving `map`. Returns once the listener
    /// is live; serving happens on background threads owned by the
    /// returned [`ServerHandle`]. Mutations live only in memory — for
    /// crash durability see [`start_durable`](Self::start_durable).
    pub fn start(map: Arc<KvMap>, cfg: ServerConfig) -> io::Result<ServerHandle> {
        Self::start_inner(map, None, cfg)
    }

    /// Start in **durable mode**: recover (or create) a
    /// [`DurableKvMap`] in `dir` — newest valid checkpoint plus WAL
    /// replay — and serve it with every `insert`/`remove`/`batch_insert`
    /// logged (and, under the default
    /// [`FsyncPolicy::Always`](lll_wal::FsyncPolicy::Always), fsynced)
    /// *before* the response is sent. The `snapshot` verb becomes a
    /// checkpoint: snapshot + log truncation. Returns the handle and
    /// what recovery found.
    pub fn start_durable(
        dir: impl AsRef<std::path::Path>,
        opts: DurableOptions,
        builder: &ShardedBuilder,
        cfg: ServerConfig,
    ) -> Result<(ServerHandle, DurableRecovery), WalError> {
        let (durable, recovery) = DurableKvMap::open(dir, opts, builder)?;
        let map = Arc::clone(durable.map());
        let handle = Self::start_inner(map, Some(Arc::new(durable)), cfg).map_err(WalError::Io)?;
        Ok((handle, recovery))
    }

    fn start_inner(
        map: Arc<KvMap>,
        durable: Option<Arc<DurableKvMap>>,
        cfg: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(resolve(&cfg.addr)?)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let obs = ServerObs { verbs: VERBS.map(|_| Histogram::latency_ns()), trace: map.trace() };
        let shared = Arc::new(Shared {
            map,
            durable,
            cfg,
            addr,
            draining: AtomicBool::new(false),
            active_conns: AtomicU64::new(0),
            served_requests: AtomicU64::new(0),
            refused_conns: AtomicU64::new(0),
            obs,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
        });

        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(thread::Builder::new().name(format!("lll-server-worker-{i}")).spawn(
                move || {
                    while let Some(stream) = shared.pop_conn() {
                        conn::serve(stream, &shared);
                    }
                },
            )?);
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(thread::Builder::new().name("lll-server-accept".into()).spawn(
                move || {
                    for stream in listener.incoming() {
                        if shared.draining.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                        if q.len() >= shared.cfg.pending_conns {
                            drop(q);
                            shared.refused_conns.fetch_add(1, Ordering::Relaxed);
                            refuse(stream);
                        } else {
                            q.push_back(stream);
                            drop(q);
                            shared.queue_cv.notify_one();
                        }
                    }
                },
            )?);
        }
        Ok(ServerHandle { shared, threads: Some(threads) })
    }
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))
}

/// Best-effort busy refusal: one typed `Error` frame, then close. Failure
/// to deliver it is the peer's problem — the cap must hold regardless.
fn refuse(stream: TcpStream) {
    let mut w = BufWriter::new(stream);
    let _ =
        crate::proto::Response::Error("server busy: connection queue full".into()).write_to(&mut w);
    let _ = w.flush();
}

/// Owner of the server's threads. Dropping the handle without calling
/// [`shutdown`](ServerHandle::shutdown) detaches them (the process keeps
/// serving) — tests and binaries should drain explicitly.
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Option<Vec<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The served map — in-process readers (tests, embedded ops tooling)
    /// can inspect state without a connection.
    pub fn map(&self) -> &Arc<KvMap> {
        &self.shared.map
    }

    /// The durable layer, when the server was started with
    /// [`Server::start_durable`] — for checkpointing, WAL metrics, and
    /// audit from process-local ops tooling.
    pub fn durable(&self) -> Option<&Arc<DurableKvMap>> {
        self.shared.durable.as_ref()
    }

    /// True once a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Requests served so far.
    pub fn served_requests(&self) -> u64 {
        self.shared.served_requests.load(Ordering::Relaxed)
    }

    /// Connections refused at the pending-queue cap so far.
    pub fn refused_conns(&self) -> u64 {
        self.shared.refused_conns.load(Ordering::Relaxed)
    }

    /// Begin a graceful drain: stop accepting, let in-flight requests
    /// finish. Returns immediately; pair with [`join`](Self::join).
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// Wait for the accept loop and every worker to exit. Call after
    /// [`drain`](Self::drain) (joining a non-draining server blocks until
    /// someone else drains it).
    pub fn join(&mut self) {
        if let Some(threads) = self.threads.take() {
            for t in threads {
                let _ = t.join();
            }
        }
    }

    /// [`drain`](Self::drain) + [`join`](Self::join).
    pub fn shutdown(&mut self) {
        self.drain();
        self.join();
    }
}
