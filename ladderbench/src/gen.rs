//! Seeded inputs. Everything a run feeds the program — the preload, the
//! logged history a served restart replays, and the measured op stream —
//! is generated here from the workload seed, before any timing starts.

use std::collections::{BTreeMap, HashMap};

/// Entries preloaded before any workload starts (n = 2^18).
pub const PRELOAD: usize = 1 << 18;
/// Logged mutations behind the restart checkpoint; a served restart
/// replays exactly this many records.
pub const HISTORY: usize = 1 << 15;
/// Entries a scan returns (fewer at the end of the key space).
pub const SCAN_LEN: usize = 32;
/// Ascending fresh keys per clustered insert run.
pub const RUN_LEN: u64 = 1000;

/// One key-value entry: 8-byte key, 32-byte value.
pub type Entry = (u64, [u8; 32]);

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One thread on `ShardedMap`: 50% get, 20% insert, 20% remove, 10% scan.
    Uniform,
    /// One thread on `ShardedMap`: 80% inserts in ascending runs, 20% gets.
    Clustered,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Uniform, Workload::Clustered];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Uniform => "embedded_uniform_mix",
            Workload::Clustered => "embedded_clustered_ingest",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One operation of a stream. Values travel with their inserts so the
/// oracle can tell a stale value from a fresh one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Look up a live key.
    Get(u64),
    /// Insert a key that is not live.
    Insert(u64, [u8; 32]),
    /// Remove a live key.
    Remove(u64),
    /// Read up to [`SCAN_LEN`] entries from a key, live or not.
    Scan(u64),
}

/// Op kinds, as indices into per-kind sample tables.
pub const GET: usize = 0;
pub const INSERT: usize = 1;
pub const REMOVE: usize = 2;
pub const SCAN: usize = 3;
/// A checkpoint, which only the durable rungs run.
pub const CHECKPOINT: usize = 4;
/// Short names of the kinds above, for span dumps.
pub const KIND_NAMES: [&str; 5] = ["get", "insert", "remove", "scan", "checkpoint"];

impl Op {
    /// The op's kind index ([`GET`], [`INSERT`], [`REMOVE`] or [`SCAN`]).
    pub fn kind(&self) -> usize {
        match self {
            Op::Get(_) => GET,
            Op::Insert(..) => INSERT,
            Op::Remove(_) => REMOVE,
            Op::Scan(_) => SCAN,
        }
    }

    /// The key the op addresses.
    pub fn key(&self) -> u64 {
        match *self {
            Op::Get(k) | Op::Insert(k, _) | Op::Remove(k) | Op::Scan(k) => k,
        }
    }
}

/// SplitMix64: a small, fast, seedable generator with a bijective output
/// mix (so distinct inputs give distinct keys).
#[derive(Clone, Debug)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// The 32-byte value written by the `version`-th write of `key`.
pub fn value(key: u64, version: u64) -> [u8; 32] {
    let mut out = [0u8; 32];
    let base = mix(key ^ mix(version));
    for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(base.wrapping_add(i as u64)).to_le_bytes());
    }
    out
}

/// A set of keys supporting O(1) insert, remove and uniform pick.
#[derive(Default)]
struct Pool {
    keys: Vec<u64>,
    pos: HashMap<u64, usize>,
}

impl Pool {
    fn add(&mut self, key: u64) {
        self.pos.insert(key, self.keys.len());
        self.keys.push(key);
    }

    fn take(&mut self, key: u64) {
        let i = self.pos.remove(&key).expect("key in pool");
        self.keys.swap_remove(i);
        if let Some(&moved) = self.keys.get(i) {
            self.pos.insert(moved, i);
        }
    }

    fn pick(&self, rng: &mut Rng) -> u64 {
        self.keys[rng.below(self.keys.len())]
    }

    fn contains(&self, key: u64) -> bool {
        self.pos.contains_key(&key)
    }
}

/// Everything one run feeds the program.
pub struct Inputs {
    /// The preload, sorted by key: the restart checkpoint's contents.
    pub preload: Vec<Entry>,
    /// Mutations logged after the checkpoint (alternating insert/remove,
    /// so the size stays at [`PRELOAD`]).
    pub history: Vec<Op>,
    /// Contents after `history`, sorted: every structure starts here.
    pub start: Vec<Entry>,
    /// The measured op stream, valid from `start`.
    pub ops: Vec<Op>,
}

/// The generator's view of the live key set.
struct State {
    rng: Rng,
    live: Pool,
    /// Keys of the 2n-key universe that are not live.
    absent: Pool,
    /// The universe, for scan starts.
    universe: Vec<u64>,
    /// Writes so far: each write's value gets a fresh version.
    version: u64,
    /// Next key of the current clustered insert run, and keys left in it.
    run: (u64, u64),
}

impl State {
    fn insert_uniform(&mut self) -> Op {
        let key = self.absent.pick(&mut self.rng);
        self.absent.take(key);
        self.live.add(key);
        self.version += 1;
        Op::Insert(key, value(key, self.version))
    }

    fn remove_uniform(&mut self) -> Op {
        let key = self.live.pick(&mut self.rng);
        self.live.take(key);
        self.absent.add(key);
        Op::Remove(key)
    }

    fn uniform_mix(&mut self) -> Op {
        match self.rng.below(100) {
            0..=49 => Op::Get(self.live.pick(&mut self.rng)),
            50..=69 => self.insert_uniform(),
            70..=89 => self.remove_uniform(),
            _ => Op::Scan(self.universe[self.rng.below(self.universe.len())]),
        }
    }

    fn clustered(&mut self) -> Op {
        if self.rng.below(100) >= 80 {
            return Op::Get(self.live.pick(&mut self.rng));
        }
        if self.run.1 == 0 {
            // A fresh anchor whose whole run is free of live keys.
            self.run = loop {
                let anchor = self.rng.next_u64() >> 1;
                if (1..=RUN_LEN).all(|d| !self.live.contains(anchor + d)) {
                    break (anchor + 1, RUN_LEN);
                }
            };
        }
        let key = self.run.0;
        self.run = (key + 1, self.run.1 - 1);
        self.live.add(key);
        self.version += 1;
        Op::Insert(key, value(key, self.version))
    }
}

/// Generate the inputs of `workload` for `seed`, with a measured stream of
/// `ops` operations. The same arguments always give the same inputs.
pub fn generate(workload: Workload, seed: u64, ops: usize) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let key_salt = rng.next_u64();
    let universe: Vec<u64> =
        (0..2 * PRELOAD as u64).map(|i| mix(key_salt.wrapping_add(i))).collect();
    let mut order: Vec<usize> = (0..universe.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut live = Pool::default();
    let mut absent = Pool::default();
    for (rank, &i) in order.iter().enumerate() {
        if rank < PRELOAD {
            live.add(universe[i]);
        } else {
            absent.add(universe[i]);
        }
    }
    let mut preload: Vec<Entry> = live.keys.iter().map(|&k| (k, value(k, 0))).collect();
    preload.sort_unstable_by_key(|e| e.0);

    let mut st = State { rng: Rng::new(seed, 2), live, absent, universe, version: 0, run: (0, 0) };
    let history: Vec<Op> = (0..HISTORY)
        .map(|i| if i % 2 == 0 { st.insert_uniform() } else { st.remove_uniform() })
        .collect();
    let mut model: BTreeMap<u64, [u8; 32]> = preload.iter().copied().collect();
    for op in &history {
        apply(&mut model, op);
    }
    let start: Vec<Entry> = model.into_iter().collect();

    let ops = (0..ops)
        .map(|_| match workload {
            Workload::Uniform => st.uniform_mix(),
            Workload::Clustered => st.clustered(),
        })
        .collect();
    Inputs { preload, history, start, ops }
}

/// What an op returns: a point result or a scan's entries. Every layer's
/// result is converted to this form and compared with the reference's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Out {
    /// `get`, `insert` (previous value) or `remove` (removed value).
    Val(Option<[u8; 32]>),
    /// A scan's entries, in key order.
    Scan(Vec<Entry>),
    /// An error or a malformed reply: never equal to a reference result.
    Failed,
}

/// Apply `op` to a `BTreeMap` — the reference structure and the oracle.
pub fn apply(map: &mut BTreeMap<u64, [u8; 32]>, op: &Op) -> Out {
    match *op {
        Op::Get(k) => Out::Val(map.get(&k).copied()),
        Op::Insert(k, v) => Out::Val(map.insert(k, v)),
        Op::Remove(k) => Out::Val(map.remove(&k)),
        Op::Scan(k) => Out::Scan(map.range(k..).take(SCAN_LEN).map(|(k, v)| (*k, *v)).collect()),
    }
}
