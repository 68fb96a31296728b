//! `lll-obs`: dependency-free observability primitives for the
//! layered-list-labeling stack.
//!
//! The paper's central claims are *distributional* — O(log^{3/2} n)
//! amortized moves arriving in layered bursts — so validating the
//! reproduction under real traffic needs latency and move-count
//! **histograms**, not averages. Everything here is built for that hot
//! path:
//!
//! * [`Counter`] — a single `AtomicU64`, relaxed ordering.
//! * [`Histogram`] — log2-bucketed over a `[lo, hi]` power-of-two range
//!   with one under-range and one overflow bucket; recording is a handful
//!   of relaxed atomic RMWs into a pre-allocated array (zero-alloc, no
//!   locks), readout gives p50/p95/p99/max.
//! * [`push_meta`] / [`push_sample`] / [`push_histogram`] — append
//!   Prometheus-style text (`# HELP`/`# TYPE` lines, samples, histogram
//!   series) to an exposition its owner assembles from live instruments.
//! * [`TraceRing`] — a bounded lock-free ring of recent structural events
//!   (splits/merges, snapshots, drains, checkpoints): writers never block
//!   or allocate, readers drain a best-effort snapshot.
//!
//! Recording paths never allocate and never take a lock; they are safe to
//! call from any thread, including inside the zero-allocation steady-state
//! churn the workspace's counting-allocator harness pins.

#![forbid(unsafe_code)]

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Count one event.
    // lll-check: no-alloc
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` events.
    // lll-check: no-alloc
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Counter {
    /// A detached snapshot: the clone starts at the source's current value
    /// and counts independently from there.
    fn clone(&self) -> Self {
        Self(AtomicU64::new(self.get()))
    }
}

/// A log2-bucketed histogram over a `[lo, hi]` power-of-two range.
///
/// Bucket 0 counts values `<= lo`; bucket `i` (for `1 <= i <= k`, where
/// `hi = lo * 2^k`) counts values in `(lo * 2^(i-1), lo * 2^i]`; the last
/// bucket counts overflow values `> hi`. Power-of-two edges land *exactly*
/// on their bucket's inclusive upper bound, so quantile readout on
/// synthetic edge-value fills is exact.
///
/// Recording is two relaxed atomic RMWs into pre-allocated storage (the
/// bucket and the sum) and a relaxed load of the maximum, plus a third
/// RMW only when the value is a new maximum — no locks, no allocation —
/// and is safe from any number of threads concurrently (no samples are
/// lost; see the crate tests). The sample count is the sum of the
/// buckets, read when asked for, so it needs no counter of its own.
#[derive(Debug)]
pub struct Histogram {
    lo_exp: u32,
    /// `k + 2` buckets: under-range, `k` doubling bands, overflow.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram spanning `[lo, hi]`. Both bounds must be powers of two
    /// with `0 < lo < hi`.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo.is_power_of_two() && hi.is_power_of_two(), "histogram bounds: powers of two");
        assert!(lo < hi, "histogram bounds: lo {lo} must be below hi {hi}");
        let k = (hi.trailing_zeros() - lo.trailing_zeros()) as usize;
        let buckets = (0..k + 2).map(|_| AtomicU64::new(0)).collect();
        Self {
            lo_exp: lo.trailing_zeros(),
            buckets,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The conventional latency range: ~1 µs to ~1 s in nanoseconds
    /// (`2^10` to `2^30` ns).
    pub fn latency_ns() -> Self {
        Self::new(1 << 10, 1 << 30)
    }

    /// The conventional structural range for element-move counts and
    /// rebalance window widths: 1 to `2^20`.
    pub fn moves() -> Self {
        Self::new(1, 1 << 20)
    }

    /// Record one sample.
    // lll-check: no-alloc
    #[inline]
    pub fn record(&self, value: u64) {
        let idx = self.bucket_index(value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // A locked RMW only for a new maximum: `fetch_max` settles a race
        // with a concurrent larger value, and a smaller value never needs it.
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    #[inline]
    fn bucket_index(&self, value: u64) -> usize {
        if value <= (1u64 << self.lo_exp) {
            return 0;
        }
        // For lo * 2^(i-1) < v <= lo * 2^i, (v - 1) >> lo_exp has exactly
        // i significant bits.
        let i = (64 - ((value - 1) >> self.lo_exp).leading_zeros()) as usize;
        i.min(self.buckets.len() - 1)
    }

    /// The inclusive upper bound of bucket `i` (the overflow bucket has
    /// none and reports `u64::MAX`).
    pub fn bucket_bound(&self, i: usize) -> u64 {
        if i + 1 == self.buckets.len() {
            u64::MAX
        } else {
            1u64 << (self.lo_exp + i as u32)
        }
    }

    /// Per-bucket sample counts, under-range first, overflow last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Samples recorded: the sum of the bucket counts, as the exposition
    /// reads it.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest value recorded (exact, via `fetch_max`).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound of
    /// the bucket holding the `ceil(q * count)`-th smallest sample, capped
    /// at the exact observed [`max`](Self::max). Returns 0 with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return self.bucket_bound(i).min(self.max());
            }
        }
        self.max()
    }

    /// Median upper bound — `quantile(0.50)`.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper bound — `quantile(0.95)`.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper bound — `quantile(0.99)`.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl Clone for Histogram {
    /// A detached snapshot: the clone carries the source's current samples
    /// and records independently from there.
    fn clone(&self) -> Self {
        Self {
            lo_exp: self.lo_exp,
            buckets: self
                .buckets
                .iter()
                .map(|b| AtomicU64::new(b.load(Ordering::Relaxed)))
                .collect(),
            sum: AtomicU64::new(self.sum()),
            max: AtomicU64::new(self.max()),
        }
    }
}

/// Append `# HELP` and `# TYPE` lines for a metric name.
pub fn push_meta(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Append one `name{labels} value` sample line.
pub fn push_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    out.push_str(name);
    push_labels(out, labels);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

fn push_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
}

/// Append the full Prometheus exposition of one histogram series:
/// cumulative `_bucket{le=...}` lines, `_sum`, and `_count`. The buckets
/// and `_count` come from one read of the bucket counts, so `_count`
/// equals the `+Inf` bucket even while other threads record.
pub fn push_histogram(out: &mut String, name: &str, label: Option<(&str, &str)>, h: &Histogram) {
    let bucket_name = format!("{name}_bucket");
    let mut cum = 0u64;
    let counts = h.bucket_counts();
    let last = counts.len() - 1;
    for (i, c) in counts.into_iter().enumerate() {
        cum += c;
        let le = if i == last { "+Inf".to_string() } else { h.bucket_bound(i).to_string() };
        let mut labels: Vec<(&str, &str)> = label.into_iter().collect();
        labels.push(("le", le.as_str()));
        push_sample(out, &bucket_name, &labels, cum);
    }
    let base: Vec<(&str, &str)> = label.into_iter().collect();
    push_sample(out, &format!("{name}_sum"), &base, h.sum());
    push_sample(out, &format!("{name}_count"), &base, cum);
}

/// The structural event vocabulary a [`TraceRing`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A shard split: `a` = shard index, `b` = resulting shard count,
    /// `c` = entries in the split shard.
    Split = 4,
    /// A shard merge: `a` = left shard index, `b` = resulting shard
    /// count, `c` = entries merged in.
    Merge = 5,
    /// A snapshot write: `a` = total entries, `b` = shard count.
    Snapshot = 6,
    /// A server drain began.
    Drain = 7,
    /// A WAL checkpoint: `a` = the checkpoint LSN, `b` = entries in the
    /// snapshot, `c` = log segments truncated away.
    Checkpoint = 8,
}

impl TraceKind {
    /// Decode a kind recorded as a `u64`.
    pub fn from_u64(v: u64) -> Option<Self> {
        Some(match v {
            4 => Self::Split,
            5 => Self::Merge,
            6 => Self::Snapshot,
            7 => Self::Drain,
            8 => Self::Checkpoint,
            _ => return None,
        })
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Split => "split",
            Self::Merge => "merge",
            Self::Snapshot => "snapshot",
            Self::Drain => "drain",
            Self::Checkpoint => "checkpoint",
        }
    }
}

/// One structural event captured by a [`TraceRing`]: a global sequence
/// number, the event kind, and three kind-specific payload words (see
/// [`TraceKind`] for each kind's payload layout).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global record order (0-based; monotone across the ring's lifetime).
    pub seq: u64,
    /// What happened.
    pub kind: TraceKind,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

#[derive(Debug, Default)]
struct TraceSlot {
    /// `0` = never written or mid-write; otherwise the slot holds event
    /// `seq - 1`. A sequence lock: see [`TraceRing::record`].
    seq: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

/// A bounded lock-free ring of recent structural events.
///
/// Writers claim a global sequence number with one `fetch_add` and
/// overwrite the slot `seq % capacity` — recording never blocks, never
/// allocates, and costs a handful of relaxed stores and one fence, so it
/// is safe on paths that must not block or allocate. Readers take a
/// best-effort [`snapshot`](Self::snapshot): an event being overwritten
/// concurrently is detected (its slot's sequence word changes across the
/// payload read) and skipped, never torn.
#[derive(Debug)]
pub struct TraceRing {
    cursor: AtomicU64,
    slots: Box<[TraceSlot]>,
}

impl TraceRing {
    /// A ring holding the most recent `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(8);
        Self { cursor: AtomicU64::new(0), slots: (0..cap).map(|_| TraceSlot::default()).collect() }
    }

    /// Slots in the ring (events retained).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the ring's lifetime (only the most recent
    /// [`capacity`](Self::capacity) are still readable).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Record one event.
    ///
    /// The slot's `seq` word is a sequence lock in the fence form of
    /// Boehm, "Can Seqlocks Get Along with Programming Language Memory
    /// Models?" (MSPC 2012): invalidate, release fence, payload, publish.
    /// The fence keeps every payload store after the invalidation, so a
    /// reader that sees any new payload word also sees `seq` change.
    // lll-check: no-alloc
    pub fn record(&self, kind: TraceKind, a: u64, b: u64, c: u64) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
        slot.seq.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::Release);
    }

    /// A best-effort snapshot of the retained events in record order.
    /// Events mid-overwrite are skipped; completed events are never torn.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let published = slot.seq.load(Ordering::Acquire);
            if published == 0 {
                continue;
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let (a, b, c) = (
                slot.a.load(Ordering::Relaxed),
                slot.b.load(Ordering::Relaxed),
                slot.c.load(Ordering::Relaxed),
            );
            // Pairs with the release fence in `record`, and keeps the
            // payload loads above before the re-read of `seq`.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != published {
                continue; // overwritten while reading
            }
            let Some(kind) = TraceKind::from_u64(kind) else { continue };
            out.push(TraceEvent { seq: published - 1, kind, a, b, c });
        }
        out.sort_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let detached = c.clone();
        c.inc();
        assert_eq!((c.get(), detached.get()), (11, 10));
    }

    #[test]
    fn histogram_power_of_two_edges_land_in_the_right_bucket() {
        // [lo=4, hi=64]: buckets are <=4, (4,8], (8,16], (16,32], (32,64], >64.
        let h = Histogram::new(4, 64);
        assert_eq!(h.bucket_counts().len(), 6);
        for (value, bucket) in [
            (0, 0),
            (1, 0),
            (4, 0), // lo lands in the under-range bucket (inclusive bound)
            (5, 1),
            (8, 1), // each power-of-two edge is its band's inclusive top
            (9, 2),
            (16, 2),
            (17, 3),
            (32, 3),
            (33, 4),
            (64, 4), // hi is the top band's inclusive bound
            (65, 5), // overflow
            (u64::MAX, 5),
        ] {
            let before = h.bucket_counts();
            h.record(value);
            let after = h.bucket_counts();
            let hit: Vec<usize> = (0..after.len()).filter(|&i| after[i] != before[i]).collect();
            assert_eq!(hit, vec![bucket], "value {value} must land in bucket {bucket}");
        }
        assert_eq!(h.count(), 13);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_bounds_and_quantiles_are_exact_on_edge_fills() {
        let h = Histogram::new(1, 1 << 20);
        // Fill with exact bucket bounds: quantiles must read back exactly.
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 1023);
        assert_eq!(h.max(), 512);
        assert_eq!(h.quantile(0.10), 1);
        assert_eq!(h.p50(), 16, "5th of 10 edge values");
        assert_eq!(h.quantile(0.90), 256);
        assert_eq!(h.p99(), 512);
        assert_eq!(h.quantile(1.0), 512);
        // Quantiles never exceed the observed max, even mid-bucket.
        let m = Histogram::new(1, 1 << 10);
        m.record(100);
        assert_eq!(m.p50(), 100, "single mid-bucket sample reads back as max");
    }

    #[test]
    fn histogram_empty_and_degenerate_quantiles() {
        let h = Histogram::latency_ns();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
        h.record(0);
        assert_eq!(h.p50(), 0, "value 0 in the under-range bucket, max 0");
    }

    #[test]
    fn histogram_concurrent_records_lose_no_samples() {
        let h = std::sync::Arc::new(Histogram::moves());
        let per_thread = 50_000u64;
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record((i % 1024) + t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        assert_eq!(h.count(), 4 * per_thread, "no samples lost");
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 4 * per_thread);
        assert!(h.max() >= 1023);
    }

    #[test]
    fn push_helpers_render_prometheus_text() {
        let h = Histogram::latency_ns();
        h.record(2048);
        let mut text = String::new();
        push_meta(&mut text, "lll_test_events_total", "counter", "events observed");
        push_sample(&mut text, "lll_test_events_total", &[], 3);
        push_meta(&mut text, "lll_test_depth", "gauge", "current depth");
        push_sample(&mut text, "lll_test_depth", &[("shard", "0")], 5);
        push_meta(&mut text, "lll_test_latency_ns", "histogram", "latency in nanoseconds");
        push_histogram(&mut text, "lll_test_latency_ns", Some(("verb", "get")), &h);
        assert!(text.contains("# HELP lll_test_events_total events observed\n"), "{text}");
        assert!(text.contains("# TYPE lll_test_events_total counter\n"), "{text}");
        assert!(text.contains("\nlll_test_events_total 3\n"), "{text}");
        assert!(text.contains("# TYPE lll_test_depth gauge\n"), "{text}");
        assert!(text.contains("\nlll_test_depth{shard=\"0\"} 5\n"), "{text}");
        assert!(text.contains("# TYPE lll_test_latency_ns histogram\n"), "{text}");
        assert!(text.contains("lll_test_latency_ns_bucket{verb=\"get\",le=\"1024\"} 0"), "{text}");
        assert!(text.contains("lll_test_latency_ns_bucket{verb=\"get\",le=\"2048\"} 1"), "{text}");
        assert!(text.contains("lll_test_latency_ns_bucket{verb=\"get\",le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("lll_test_latency_ns_sum{verb=\"get\"} 2048"), "{text}");
        assert!(text.contains("lll_test_latency_ns_count{verb=\"get\"} 1"), "{text}");
    }

    #[test]
    fn histogram_render_count_equals_inf_bucket_while_recording() {
        // The text format requires `_count` to equal the `+Inf` bucket.
        // Render while two threads record, so the histogram moves between
        // the reads one render makes.
        let h = std::sync::Arc::new(Histogram::latency_ns());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let start = std::sync::Arc::new(std::sync::Barrier::new(3));
        let recorders: Vec<_> = (0..2u64)
            .map(|t| {
                let (h, stop, start) = (h.clone(), stop.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        h.record(1 << (10 + i % 20));
                        i += 1;
                    }
                })
            })
            .collect();
        let value = |text: &str, prefix: &str| -> u64 {
            let line = text.lines().find(|l| l.starts_with(prefix)).expect("sample line");
            line.rsplit(' ').next().and_then(|v| v.parse().ok()).expect("sample value")
        };
        let mut mismatches = 0;
        start.wait();
        for _ in 0..20_000 {
            let mut text = String::new();
            push_histogram(&mut text, "lll_race_ns", None, &h);
            if value(&text, "lll_race_ns_bucket{le=\"+Inf\"}") != value(&text, "lll_race_ns_count")
            {
                mismatches += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in recorders {
            r.join().expect("recorder thread");
        }
        assert_eq!(mismatches, 0, "renders whose _count differed from the +Inf bucket");
    }

    #[test]
    fn trace_ring_records_and_snapshots_in_order() {
        let ring = TraceRing::new(8);
        assert_eq!(ring.capacity(), 8);
        ring.record(TraceKind::Split, 0, 2, 500);
        ring.record(TraceKind::Merge, 0, 1, 40);
        ring.record(TraceKind::Drain, 9, 1, 0);
        let events = ring.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], TraceEvent { seq: 0, kind: TraceKind::Split, a: 0, b: 2, c: 500 });
        assert_eq!(events[1].kind, TraceKind::Merge);
        assert_eq!(events[2].kind.name(), "drain");
        assert_eq!(ring.recorded(), 3);
        // The `trace` verb carries kinds as these numbers.
        for (v, kind) in [
            (4, TraceKind::Split),
            (5, TraceKind::Merge),
            (6, TraceKind::Snapshot),
            (7, TraceKind::Drain),
            (8, TraceKind::Checkpoint),
        ] {
            assert_eq!((kind as u64, TraceKind::from_u64(v)), (v, Some(kind)));
        }
    }

    #[test]
    fn trace_ring_keeps_only_the_most_recent_events() {
        let ring = TraceRing::new(8);
        for i in 0..20u64 {
            ring.record(TraceKind::Snapshot, i, 0, 0);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 8, "ring retains exactly its capacity");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>(), "oldest events overwritten");
        assert_eq!(events[0].a, 12);
    }

    #[test]
    fn trace_ring_concurrent_writers_never_tear() {
        let ring = std::sync::Arc::new(TraceRing::new(16));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        // Payload invariant: b == a + 1, c == a + 2.
                        let a = t * 1_000_000 + i;
                        ring.record(TraceKind::Merge, a, a + 1, a + 2);
                    }
                })
            })
            .collect();
        for _ in 0..100 {
            for e in ring.snapshot() {
                assert_eq!((e.b, e.c), (e.a + 1, e.a + 2), "torn event surfaced");
            }
        }
        for w in writers {
            w.join().expect("writer thread");
        }
        assert_eq!(ring.recorded(), 40_000);
        assert_eq!(ring.snapshot().len(), 16);
    }
}
