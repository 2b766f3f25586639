//! Host-side self-observability: what is the **simulator** doing, in wall
//! time, while it simulates?
//!
//! The guest side of the reproduction is thoroughly instrumented —
//! `wwt-sim`'s trace sink attributes every simulated cycle — but the
//! simulator itself was a black box: no events/sec per scheduler shard,
//! no calendar-queue depths, no run-cache hit rates, no `ParEngine`
//! barrier-stall share. This crate is the process-global metrics registry
//! those numbers live in, plus the machinery to get them out:
//!
//! * **Instruments.** Named counters ([`Ctr`]), per-shard counters
//!   ([`ShardCtr`]) and high-water gauges ([`ShardGauge`]), and one log2
//!   histogram of per-experiment wall time (the same bucket scheme as
//!   `wwt-sim`'s guest latency histograms). Everything is a plain
//!   `AtomicU64` updated with `Relaxed` ordering — no locks anywhere near
//!   an engine hot path.
//! * **Gating.** The registry is off by default. Gated update paths load
//!   one `AtomicBool` and branch — the same zero-cost-when-disabled
//!   discipline as `SimConfig::trace`. The run-cache counters are the one
//!   deliberate exception ([`count_always`]): they tick a handful of
//!   times per experiment, and the grid runner's end-of-run cache summary
//!   must work without `--obs`.
//! * **Flight recorder.** A periodic sampler snapshots the registry into
//!   a bounded ring buffer; the last few snapshots are attached to every
//!   `SimError` diagnostic so a deadlocked run carries "what was the
//!   simulator doing just before it died".
//! * **Exporters.** A human-readable self-profile table
//!   ([`render_table`]), machine-readable JSON snapshots
//!   ([`render_json`]), and Prometheus text exposition
//!   ([`render_prometheus`]).
//!
//! Host metrics are strictly off the determinism path: nothing in the
//! simulation ever *reads* this registry, so simulated output is
//! byte-identical whether observability is enabled or not, at any shard
//! count, clean or faulted.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-shard instruments track up to this many scheduler shards; higher
/// shard indices clamp onto the last slot (runs that wide are aggregate
/// anyway).
pub const MAX_SHARDS: usize = 64;

/// Snapshots the flight recorder retains (oldest evicted first).
pub const FLIGHT_RECORDER_CAP: usize = 8;

/// Process-global scalar counters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Ctr {
    /// Scheduled callbacks whose captures fit `SmallCall`'s inline buffer.
    SimCallInline,
    /// Scheduled callbacks that fell back to a boxed closure.
    SimCallBoxed,
    /// `CellPool::take` calls served from a recycled allocation.
    SimPoolTakeRecycled,
    /// `CellPool::take` calls that had to allocate a fresh cell.
    SimPoolTakeFresh,
    /// `CellPool::put` calls that recycled the cell.
    SimPoolPutRecycled,
    /// `CellPool::put` calls that dropped an escaped cell instead.
    SimPoolPutDropped,
    /// `ParEngine` envelopes delivered to the sending shard.
    ParMsgsSameShard,
    /// `ParEngine` envelopes that crossed a shard boundary.
    ParMsgsCrossShard,
    /// Run-cache lookups served from disk.
    CacheHits,
    /// Run-cache lookups that missed (absent entry or damage).
    CacheMisses,
    /// Bytes of cache entries read (hits only).
    CacheBytesRead,
    /// Damaged (unreadable/truncated/corrupt) entries recovered by
    /// re-simulation.
    CacheCorruptRecovered,
    /// Experiments the grid runner produced artifacts for.
    GridExperimentsRun,
    /// Of those, how many replayed from the run cache.
    GridExperimentsCached,
    /// Grid jobs re-attempted after a transient failure (store IO error
    /// or watchdog expiry).
    GridJobRetries,
    /// Grid jobs whose experiment panicked (caught at the job boundary
    /// and reported as a failed cell).
    GridJobPanics,
    /// Corrupt store entries moved to quarantine by an fsck pass.
    StoreFsckQuarantined,
    /// Orphaned temp files and stale lock files garbage-collected by an
    /// fsck pass.
    StoreFsckSwept,
    /// Stale writer locks broken and taken over.
    StoreLockTakeovers,
    /// Host faults the `StoreFaults` harness actually injected.
    StoreFaultsInjected,
}

impl Ctr {
    /// Every counter, in index order.
    pub const ALL: [Ctr; 20] = [
        Ctr::SimCallInline,
        Ctr::SimCallBoxed,
        Ctr::SimPoolTakeRecycled,
        Ctr::SimPoolTakeFresh,
        Ctr::SimPoolPutRecycled,
        Ctr::SimPoolPutDropped,
        Ctr::ParMsgsSameShard,
        Ctr::ParMsgsCrossShard,
        Ctr::CacheHits,
        Ctr::CacheMisses,
        Ctr::CacheBytesRead,
        Ctr::CacheCorruptRecovered,
        Ctr::GridExperimentsRun,
        Ctr::GridExperimentsCached,
        Ctr::GridJobRetries,
        Ctr::GridJobPanics,
        Ctr::StoreFsckQuarantined,
        Ctr::StoreFsckSwept,
        Ctr::StoreLockTakeovers,
        Ctr::StoreFaultsInjected,
    ];

    /// Stable snake_case name (the JSON/Prometheus key).
    pub fn label(&self) -> &'static str {
        match self {
            Ctr::SimCallInline => "sim_call_inline",
            Ctr::SimCallBoxed => "sim_call_boxed",
            Ctr::SimPoolTakeRecycled => "sim_pool_take_recycled",
            Ctr::SimPoolTakeFresh => "sim_pool_take_fresh",
            Ctr::SimPoolPutRecycled => "sim_pool_put_recycled",
            Ctr::SimPoolPutDropped => "sim_pool_put_dropped",
            Ctr::ParMsgsSameShard => "par_msgs_same_shard",
            Ctr::ParMsgsCrossShard => "par_msgs_cross_shard",
            Ctr::CacheHits => "cache_hits",
            Ctr::CacheMisses => "cache_misses",
            Ctr::CacheBytesRead => "cache_bytes_read",
            Ctr::CacheCorruptRecovered => "cache_corrupt_recovered",
            Ctr::GridExperimentsRun => "grid_experiments_run",
            Ctr::GridExperimentsCached => "grid_experiments_cached",
            Ctr::GridJobRetries => "grid_job_retries",
            Ctr::GridJobPanics => "grid_job_panics",
            Ctr::StoreFsckQuarantined => "store_fsck_quarantined",
            Ctr::StoreFsckSwept => "store_fsck_swept",
            Ctr::StoreLockTakeovers => "store_lock_takeovers",
            Ctr::StoreFaultsInjected => "store_faults_injected",
        }
    }
}

/// Per-scheduler-shard counters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardCtr {
    /// Events pushed onto the engine's calendar queue (index 0).
    SimEventsPushed,
    /// Events popped from the engine's calendar queue (index 0).
    SimEventsPopped,
    /// Quantum windows this `ParEngine` shard processed.
    ParQuanta,
    /// Nanoseconds this `ParEngine` shard spent inside barrier waits.
    ParBarrierWaitNs,
    /// Nanoseconds this `ParEngine` shard spent processing its window.
    ParBusyNs,
}

impl ShardCtr {
    /// Every per-shard counter, in index order.
    pub const ALL: [ShardCtr; 5] = [
        ShardCtr::SimEventsPushed,
        ShardCtr::SimEventsPopped,
        ShardCtr::ParQuanta,
        ShardCtr::ParBarrierWaitNs,
        ShardCtr::ParBusyNs,
    ];

    /// Stable snake_case name (the JSON/Prometheus key).
    pub fn label(&self) -> &'static str {
        match self {
            ShardCtr::SimEventsPushed => "sim_events_pushed",
            ShardCtr::SimEventsPopped => "sim_events_popped",
            ShardCtr::ParQuanta => "par_quanta",
            ShardCtr::ParBarrierWaitNs => "par_barrier_wait_ns",
            ShardCtr::ParBusyNs => "par_busy_ns",
        }
    }
}

/// Per-scheduler-shard high-water gauges (monotone max).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardGauge {
    /// Calendar-queue depth high-water mark (index 0).
    SimQueueDepthHwm,
}

impl ShardGauge {
    /// Every per-shard gauge, in index order.
    pub const ALL: [ShardGauge; 1] = [ShardGauge::SimQueueDepthHwm];

    /// Stable snake_case name (the JSON/Prometheus key).
    pub fn label(&self) -> &'static str {
        match self {
            ShardGauge::SimQueueDepthHwm => "sim_queue_depth_hwm",
        }
    }
}

// Deliberately `const`, not `static`: these exist only as repeatable
// array initializers for the registry below — each use site gets its own
// fresh atomic, which is exactly the semantics clippy warns about.
#[allow(clippy::declare_interior_mutable_const)]
const Z: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZROW: [AtomicU64; MAX_SHARDS] = [Z; MAX_SHARDS];

struct Registry {
    enabled: AtomicBool,
    started: Mutex<Option<Instant>>,
    counters: [AtomicU64; Ctr::ALL.len()],
    shard_counters: [[AtomicU64; MAX_SHARDS]; ShardCtr::ALL.len()],
    shard_gauges: [[AtomicU64; MAX_SHARDS]; ShardGauge::ALL.len()],
    /// Grid runner: workers currently inside an experiment, and the peak.
    jobs_active: AtomicU64,
    jobs_peak: AtomicU64,
    /// Log2 histogram of per-experiment wall time, in microseconds (same
    /// bucket scheme as the guest-side `wwt_sim::Histogram`: bucket 0
    /// holds zero, bucket i holds values of bit length i).
    wall_us_buckets: [AtomicU64; 65],
    wall_us_count: AtomicU64,
    wall_us_sum: AtomicU64,
    wall_us_max: AtomicU64,
}

static REGISTRY: Registry = Registry {
    enabled: AtomicBool::new(false),
    started: Mutex::new(None),
    counters: [Z; Ctr::ALL.len()],
    shard_counters: [ZROW; ShardCtr::ALL.len()],
    shard_gauges: [ZROW; ShardGauge::ALL.len()],
    jobs_active: AtomicU64::new(0),
    jobs_peak: AtomicU64::new(0),
    wall_us_buckets: [Z; 65],
    wall_us_count: AtomicU64::new(0),
    wall_us_sum: AtomicU64::new(0),
    wall_us_max: AtomicU64::new(0),
};

static RECORDER: Mutex<Vec<ObsSnapshot>> = Mutex::new(Vec::new());

/// Turns host metrics collection on for the rest of the process (or until
/// [`disable`]). Idempotent; the first call anchors the elapsed-time
/// origin that snapshots report against.
pub fn enable() {
    let mut started = REGISTRY.started.lock().unwrap();
    if started.is_none() {
        *started = Some(Instant::now());
    }
    REGISTRY.enabled.store(true, Ordering::Relaxed);
}

/// Turns gated collection back off (tests use this to compare disabled
/// and enabled runs in one process). Accumulated values are kept; see
/// [`reset`].
pub fn disable() {
    REGISTRY.enabled.store(false, Ordering::Relaxed);
}

/// Whether gated instruments are live. One `Relaxed` load — hot paths
/// that cannot cache the flag call this directly.
#[inline]
pub fn enabled() -> bool {
    REGISTRY.enabled.load(Ordering::Relaxed)
}

/// Zeroes every instrument, clears the flight recorder, and re-anchors
/// the elapsed-time origin. For tests and long-lived processes that want
/// per-phase profiles; the enabled flag is left as-is.
pub fn reset() {
    for c in &REGISTRY.counters {
        c.store(0, Ordering::Relaxed);
    }
    for row in &REGISTRY.shard_counters {
        for c in row {
            c.store(0, Ordering::Relaxed);
        }
    }
    for row in &REGISTRY.shard_gauges {
        for c in row {
            c.store(0, Ordering::Relaxed);
        }
    }
    REGISTRY.jobs_active.store(0, Ordering::Relaxed);
    REGISTRY.jobs_peak.store(0, Ordering::Relaxed);
    for b in &REGISTRY.wall_us_buckets {
        b.store(0, Ordering::Relaxed);
    }
    REGISTRY.wall_us_count.store(0, Ordering::Relaxed);
    REGISTRY.wall_us_sum.store(0, Ordering::Relaxed);
    REGISTRY.wall_us_max.store(0, Ordering::Relaxed);
    RECORDER.lock().unwrap().clear();
    *REGISTRY.started.lock().unwrap() = Some(Instant::now());
}

/// Milliseconds since [`enable`] (or the last [`reset`]); zero before
/// either.
pub fn elapsed_ms() -> u64 {
    REGISTRY
        .started
        .lock()
        .unwrap()
        .map_or(0, |t| t.elapsed().as_millis() as u64)
}

/// Adds `n` to a counter. No-op while disabled.
#[inline]
pub fn count(c: Ctr, n: u64) {
    if enabled() {
        REGISTRY.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Adds `n` to a counter **regardless of the enabled flag**. Reserved for
/// cold, per-experiment events (the run-cache stats behind the grid
/// runner's always-on summary) — never call this from an engine hot path.
#[inline]
pub fn count_always(c: Ctr, n: u64) {
    REGISTRY.counters[c as usize].fetch_add(n, Ordering::Relaxed);
}

/// Current value of a counter.
pub fn counter(c: Ctr) -> u64 {
    REGISTRY.counters[c as usize].load(Ordering::Relaxed)
}

/// Adds `n` to a per-shard counter. No-op while disabled; shard indices
/// past [`MAX_SHARDS`] clamp onto the last slot.
#[inline]
pub fn shard_count(c: ShardCtr, shard: usize, n: u64) {
    if enabled() {
        REGISTRY.shard_counters[c as usize][shard.min(MAX_SHARDS - 1)]
            .fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of a per-shard counter.
pub fn shard_counter(c: ShardCtr, shard: usize) -> u64 {
    REGISTRY.shard_counters[c as usize][shard.min(MAX_SHARDS - 1)].load(Ordering::Relaxed)
}

/// Raises a per-shard high-water gauge to at least `v`. No-op while
/// disabled.
#[inline]
pub fn shard_max(g: ShardGauge, shard: usize, v: u64) {
    if enabled() {
        REGISTRY.shard_gauges[g as usize][shard.min(MAX_SHARDS - 1)]
            .fetch_max(v, Ordering::Relaxed);
    }
}

/// Current value of a per-shard gauge.
pub fn shard_gauge(g: ShardGauge, shard: usize) -> u64 {
    REGISTRY.shard_gauges[g as usize][shard.min(MAX_SHARDS - 1)].load(Ordering::Relaxed)
}

/// Marks a grid worker as inside an experiment, maintaining the
/// occupancy high-water mark. No-op while disabled.
pub fn job_enter() {
    if enabled() {
        let now = REGISTRY.jobs_active.fetch_add(1, Ordering::Relaxed) + 1;
        REGISTRY.jobs_peak.fetch_max(now, Ordering::Relaxed);
    }
}

/// Marks a grid worker as done with an experiment. No-op while disabled.
pub fn job_exit() {
    if enabled() {
        // Saturating: an enable() racing a grid in flight may see an exit
        // without its enter.
        let _ = REGISTRY
            .jobs_active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }
}

/// Records one per-experiment wall time, in microseconds. No-op while
/// disabled.
pub fn record_wall_us(v: u64) {
    if enabled() {
        let bucket = (u64::BITS - v.leading_zeros()) as usize;
        REGISTRY.wall_us_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        REGISTRY.wall_us_count.fetch_add(1, Ordering::Relaxed);
        REGISTRY.wall_us_sum.fetch_add(v, Ordering::Relaxed);
        REGISTRY.wall_us_max.fetch_max(v, Ordering::Relaxed);
    }
}

/// Approximate percentile (0..=100) of the wall-time histogram: the
/// midpoint of the log2 bucket the target rank falls in. Zero when empty.
fn wall_us_percentile(q: u64) -> u64 {
    let count = REGISTRY.wall_us_count.load(Ordering::Relaxed);
    if count == 0 {
        return 0;
    }
    let target = (count * q).div_ceil(100).max(1);
    let mut cum = 0;
    for (i, b) in REGISTRY.wall_us_buckets.iter().enumerate() {
        cum += b.load(Ordering::Relaxed);
        if cum >= target {
            if i == 0 {
                return 0;
            }
            let lo = 1u64 << (i - 1);
            let hi = 1u64.checked_shl(i as u32).unwrap_or(u64::MAX);
            // The bucket midpoint can overshoot the largest recorded
            // value; a reported percentile must never exceed the max.
            return (lo + (hi - lo) / 2).min(REGISTRY.wall_us_max.load(Ordering::Relaxed));
        }
    }
    REGISTRY.wall_us_max.load(Ordering::Relaxed)
}

/// One metric in a snapshot: a stable name, an optional shard index, and
/// the value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsSample {
    /// Stable snake_case metric name.
    pub name: &'static str,
    /// Scheduler shard, for per-shard instruments.
    pub shard: Option<usize>,
    /// Value at snapshot time.
    pub value: u64,
}

/// A point-in-time copy of every **nonzero** instrument.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Milliseconds since [`enable`] when the snapshot was taken.
    pub elapsed_ms: u64,
    /// Nonzero instruments, in registry order (scalar counters, then
    /// per-shard counters by shard, then gauges, then derived histogram
    /// and occupancy stats).
    pub samples: Vec<ObsSample>,
}

/// Takes a snapshot of the registry right now (without recording it into
/// the flight recorder — see [`record_snapshot`]).
pub fn snapshot_now() -> ObsSnapshot {
    let mut samples = Vec::new();
    let mut push = |name: &'static str, shard: Option<usize>, value: u64| {
        if value != 0 {
            samples.push(ObsSample { name, shard, value });
        }
    };
    for c in Ctr::ALL {
        push(c.label(), None, counter(c));
    }
    for c in ShardCtr::ALL {
        for shard in 0..MAX_SHARDS {
            push(c.label(), Some(shard), shard_counter(c, shard));
        }
    }
    for g in ShardGauge::ALL {
        for shard in 0..MAX_SHARDS {
            push(g.label(), Some(shard), shard_gauge(g, shard));
        }
    }
    push(
        "grid_jobs_peak",
        None,
        REGISTRY.jobs_peak.load(Ordering::Relaxed),
    );
    let count = REGISTRY.wall_us_count.load(Ordering::Relaxed);
    push("grid_exp_wall_us_count", None, count);
    if count > 0 {
        push(
            "grid_exp_wall_us_sum",
            None,
            REGISTRY.wall_us_sum.load(Ordering::Relaxed),
        );
        push("grid_exp_wall_us_p50", None, wall_us_percentile(50));
        push("grid_exp_wall_us_p90", None, wall_us_percentile(90));
        push(
            "grid_exp_wall_us_max",
            None,
            REGISTRY.wall_us_max.load(Ordering::Relaxed),
        );
    }
    ObsSnapshot {
        elapsed_ms: elapsed_ms(),
        samples,
    }
}

/// Takes a snapshot and appends it to the flight recorder ring (evicting
/// the oldest past [`FLIGHT_RECORDER_CAP`]).
pub fn record_snapshot() {
    let snap = snapshot_now();
    let mut ring = RECORDER.lock().unwrap();
    if ring.len() == FLIGHT_RECORDER_CAP {
        ring.remove(0);
    }
    ring.push(snap);
}

/// The flight recorder's current contents, oldest first.
pub fn recent_snapshots() -> Vec<ObsSnapshot> {
    RECORDER.lock().unwrap().clone()
}

/// The snapshots a failure diagnostic should carry: the flight recorder's
/// contents plus one fresh snapshot taken now. Empty while disabled, so
/// error paths can attach this unconditionally.
pub fn failure_snapshots() -> Vec<ObsSnapshot> {
    if !enabled() {
        return Vec::new();
    }
    let mut snaps = recent_snapshots();
    snaps.push(snapshot_now());
    snaps
}

/// Spawns a detached sampler thread that records a flight-recorder
/// snapshot every `period_ms` until the registry is disabled (or the
/// process exits). Call after [`enable`].
pub fn start_sampler(period_ms: u64) {
    std::thread::Builder::new()
        .name("wwt-obs-sampler".into())
        .spawn(move || {
            while enabled() {
                std::thread::sleep(std::time::Duration::from_millis(period_ms));
                if !enabled() {
                    break;
                }
                record_snapshot();
            }
        })
        .expect("spawning the obs sampler thread");
}

/// Renders one snapshot as the single flight-recorder line:
/// `[t+MSms] name=value name{shard=N}=value ...` (nonzero metrics only).
pub fn render_snapshot_line(s: &ObsSnapshot) -> String {
    let mut out = format!("[t+{}ms]", s.elapsed_ms);
    for smp in &s.samples {
        match smp.shard {
            Some(sh) => {
                let _ = write!(out, " {}{{shard={sh}}}={}", smp.name, smp.value);
            }
            None => {
                let _ = write!(out, " {}={}", smp.name, smp.value);
            }
        }
    }
    if s.samples.is_empty() {
        out.push_str(" (all metrics zero)");
    }
    out
}

/// Renders the "simulator state at failure" section attached to stalled
/// runs: a header plus one indented [`render_snapshot_line`] per
/// snapshot, oldest first. No trailing newline. The format is pinned by
/// a golden test — change it deliberately.
pub fn render_flight_recorder(snaps: &[ObsSnapshot]) -> String {
    let mut out = format!(
        "simulator state at failure (flight recorder, {} snapshot{}, oldest first):",
        snaps.len(),
        if snaps.len() == 1 { "" } else { "s" }
    );
    for s in snaps {
        let _ = write!(out, "\n  {}", render_snapshot_line(s));
    }
    out
}

/// Value of `name` (with optional shard) in a snapshot; zero if absent.
fn get(s: &ObsSnapshot, name: &str, shard: Option<usize>) -> u64 {
    s.samples
        .iter()
        .find(|m| m.name == name && m.shard == shard)
        .map_or(0, |m| m.value)
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Renders the human-readable self-profile table (`make_tables --obs`).
/// Sections whose instruments never fired are omitted.
pub fn render_table(s: &ObsSnapshot) -> String {
    let mut out = String::new();
    let secs = (s.elapsed_ms.max(1)) as f64 / 1000.0;
    let _ = writeln!(
        out,
        "simulator self-profile (host wall-time metrics, t+{}ms)",
        s.elapsed_ms
    );

    // Engine: per-shard event throughput and queue depths.
    let shards_used: Vec<usize> = (0..MAX_SHARDS)
        .filter(|&sh| {
            get(s, "sim_events_popped", Some(sh)) != 0 || get(s, "sim_events_pushed", Some(sh)) != 0
        })
        .collect();
    if !shards_used.is_empty() {
        let popped: u64 = shards_used
            .iter()
            .map(|&sh| get(s, "sim_events_popped", Some(sh)))
            .sum();
        let pushed: u64 = shards_used
            .iter()
            .map(|&sh| get(s, "sim_events_pushed", Some(sh)))
            .sum();
        let _ = writeln!(
            out,
            "  engine     events popped {popped} ({:.0}/s), pushed {pushed}, shards {}",
            popped as f64 / secs,
            shards_used.len()
        );
        for &sh in &shards_used {
            let p = get(s, "sim_events_popped", Some(sh));
            let _ = writeln!(
                out,
                "             shard {sh}: popped {p} ({:.0}/s), depth high-water {}",
                p as f64 / secs,
                get(s, "sim_queue_depth_hwm", Some(sh))
            );
        }
    }

    let inline = get(s, "sim_call_inline", None);
    let boxed = get(s, "sim_call_boxed", None);
    if inline + boxed > 0 {
        let _ = writeln!(
            out,
            "  calls      inline {inline} ({:.1}%), boxed {boxed}",
            pct(inline, inline + boxed)
        );
    }

    let take_r = get(s, "sim_pool_take_recycled", None);
    let take_f = get(s, "sim_pool_take_fresh", None);
    let put_r = get(s, "sim_pool_put_recycled", None);
    let put_d = get(s, "sim_pool_put_dropped", None);
    if take_r + take_f + put_r + put_d > 0 {
        let _ = writeln!(
            out,
            "  pool       takes {} ({:.1}% recycled), puts {} ({:.1}% recycled)",
            take_r + take_f,
            pct(take_r, take_r + take_f),
            put_r + put_d,
            pct(put_r, put_r + put_d)
        );
    }

    // ParEngine: barrier-wait share of shard time, per shard.
    let par_shards: Vec<usize> = (0..MAX_SHARDS)
        .filter(|&sh| get(s, "par_quanta", Some(sh)) != 0)
        .collect();
    if !par_shards.is_empty() {
        let same = get(s, "par_msgs_same_shard", None);
        let cross = get(s, "par_msgs_cross_shard", None);
        let quanta: u64 = par_shards
            .iter()
            .map(|&sh| get(s, "par_quanta", Some(sh)))
            .sum();
        let _ = writeln!(
            out,
            "  parengine  quanta {quanta}, mailbox traffic same-shard {same} / cross-shard {cross}",
        );
        for &sh in &par_shards {
            let wait = get(s, "par_barrier_wait_ns", Some(sh));
            let busy = get(s, "par_busy_ns", Some(sh));
            let _ = writeln!(
                out,
                "             shard {sh}: quanta {}, barrier wait {:.1}ms ({:.1}% of shard time)",
                get(s, "par_quanta", Some(sh)),
                wait as f64 / 1e6,
                pct(wait, wait + busy)
            );
        }
    }

    let hits = get(s, "cache_hits", None);
    let misses = get(s, "cache_misses", None);
    if hits + misses > 0 {
        let _ = writeln!(
            out,
            "  cache      hits {hits}, misses {misses}, bytes read {}, corrupt recovered {}",
            get(s, "cache_bytes_read", None),
            get(s, "cache_corrupt_recovered", None)
        );
    }

    let runs = get(s, "grid_experiments_run", None);
    if runs > 0 {
        let _ = writeln!(
            out,
            "  grid       experiments {runs} (cached {}), peak jobs {}, wall/exp p50 {}us p90 {}us max {}us",
            get(s, "grid_experiments_cached", None),
            get(s, "grid_jobs_peak", None),
            get(s, "grid_exp_wall_us_p50", None),
            get(s, "grid_exp_wall_us_p90", None),
            get(s, "grid_exp_wall_us_max", None)
        );
    }
    out
}

/// Renders flight-recorder snapshots as machine-readable JSON:
/// `{"snapshots":[{"elapsed_ms":N,"samples":[{"name":..,"shard":..,"value":..},..]},..]}`.
pub fn render_json(snaps: &[ObsSnapshot]) -> String {
    let mut out = String::from("{\"snapshots\":[");
    for (i, s) in snaps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"elapsed_ms\":{},\"samples\":[", s.elapsed_ms);
        for (j, m) in s.samples.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match m.shard {
                Some(sh) => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"shard\":{sh},\"value\":{}}}",
                        m.name, m.value
                    );
                }
                None => {
                    let _ = write!(out, "{{\"name\":\"{}\",\"value\":{}}}", m.name, m.value);
                }
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// Renders one snapshot as Prometheus text exposition (`wwt_`-prefixed
/// gauges; per-shard instruments become a `shard` label).
pub fn render_prometheus(s: &ObsSnapshot) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for m in &s.samples {
        if m.name != last_name {
            let _ = writeln!(out, "# TYPE wwt_{} gauge", m.name);
            last_name = m.name;
        }
        match m.shard {
            Some(sh) => {
                let _ = writeln!(out, "wwt_{}{{shard=\"{sh}\"}} {}", m.name, m.value);
            }
            None => {
                let _ = writeln!(out, "wwt_{} {}", m.name, m.value);
            }
        }
    }
    let _ = writeln!(out, "wwt_obs_elapsed_ms {}", s.elapsed_ms);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that reset or toggle the global registry.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_gated_updates_are_dropped() {
        let _g = LOCK.lock().unwrap();
        disable();
        let before = counter(Ctr::SimCallInline);
        count(Ctr::SimCallInline, 5);
        shard_count(ShardCtr::SimEventsPopped, 0, 5);
        shard_max(ShardGauge::SimQueueDepthHwm, 0, 999_999);
        record_wall_us(123);
        assert_eq!(counter(Ctr::SimCallInline), before);
        // Ungated cache counters tick anyway.
        let cb = counter(Ctr::CacheHits);
        count_always(Ctr::CacheHits, 2);
        assert_eq!(counter(Ctr::CacheHits), cb + 2);
    }

    #[test]
    fn enabled_counters_and_gauges_accumulate() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        count(Ctr::SimCallBoxed, 3);
        shard_count(ShardCtr::SimEventsPushed, 2, 7);
        shard_max(ShardGauge::SimQueueDepthHwm, 2, 40);
        shard_max(ShardGauge::SimQueueDepthHwm, 2, 10); // below HWM: no-op
        assert_eq!(counter(Ctr::SimCallBoxed), 3);
        assert_eq!(shard_counter(ShardCtr::SimEventsPushed, 2), 7);
        assert_eq!(shard_gauge(ShardGauge::SimQueueDepthHwm, 2), 40);
        // Out-of-range shards clamp instead of panicking.
        shard_count(ShardCtr::SimEventsPushed, MAX_SHARDS + 10, 1);
        assert_eq!(shard_counter(ShardCtr::SimEventsPushed, MAX_SHARDS - 1), 1);
        disable();
    }

    #[test]
    fn snapshot_carries_only_nonzero_samples() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        count(Ctr::SimCallInline, 10);
        shard_count(ShardCtr::SimEventsPopped, 1, 4);
        let s = snapshot_now();
        assert!(s.samples.iter().all(|m| m.value != 0), "{s:?}");
        assert_eq!(get(&s, "sim_call_inline", None), 10);
        assert_eq!(get(&s, "sim_events_popped", Some(1)), 4);
        assert_eq!(get(&s, "sim_events_popped", Some(0)), 0);
        disable();
    }

    #[test]
    fn flight_recorder_is_a_bounded_ring() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        for i in 0..(FLIGHT_RECORDER_CAP + 3) {
            count(Ctr::GridExperimentsRun, 1);
            record_snapshot();
            let snaps = recent_snapshots();
            assert!(snaps.len() <= FLIGHT_RECORDER_CAP, "round {i}");
        }
        let snaps = recent_snapshots();
        assert_eq!(snaps.len(), FLIGHT_RECORDER_CAP);
        // Oldest first: the retained run counts are the *last* N.
        let runs: Vec<u64> = snaps
            .iter()
            .map(|s| get(s, "grid_experiments_run", None))
            .collect();
        assert!(runs.windows(2).all(|w| w[0] < w[1]), "{runs:?}");
        assert_eq!(*runs.last().unwrap(), (FLIGHT_RECORDER_CAP + 3) as u64);
        disable();
    }

    #[test]
    fn failure_snapshots_empty_when_disabled() {
        let _g = LOCK.lock().unwrap();
        disable();
        assert!(failure_snapshots().is_empty());
        enable();
        reset();
        count(Ctr::SimCallInline, 1);
        let snaps = failure_snapshots();
        assert_eq!(snaps.len(), 1, "recorder empty: just the fresh snapshot");
        record_snapshot();
        assert_eq!(failure_snapshots().len(), 2);
        disable();
    }

    #[test]
    fn snapshot_line_format_is_stable() {
        let s = ObsSnapshot {
            elapsed_ms: 120,
            samples: vec![
                ObsSample {
                    name: "sim_events_popped",
                    shard: Some(0),
                    value: 42,
                },
                ObsSample {
                    name: "cache_hits",
                    shard: None,
                    value: 3,
                },
            ],
        };
        assert_eq!(
            render_snapshot_line(&s),
            "[t+120ms] sim_events_popped{shard=0}=42 cache_hits=3"
        );
        assert_eq!(
            render_snapshot_line(&ObsSnapshot::default()),
            "[t+0ms] (all metrics zero)"
        );
    }

    #[test]
    fn exporters_render_valid_shapes() {
        let s = ObsSnapshot {
            elapsed_ms: 5,
            samples: vec![
                ObsSample {
                    name: "cache_hits",
                    shard: None,
                    value: 3,
                },
                ObsSample {
                    name: "sim_events_popped",
                    shard: Some(1),
                    value: 9,
                },
            ],
        };
        let json = render_json(std::slice::from_ref(&s));
        assert!(json.starts_with("{\"snapshots\":["));
        assert!(json.contains("\"name\":\"sim_events_popped\",\"shard\":1,\"value\":9"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let prom = render_prometheus(&s);
        assert!(prom.contains("# TYPE wwt_cache_hits gauge"));
        assert!(prom.contains("wwt_cache_hits 3"));
        assert!(prom.contains("wwt_sim_events_popped{shard=\"1\"} 9"));
    }

    #[test]
    fn wall_histogram_percentiles_are_monotone() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        for v in [100u64, 200, 400, 800, 100_000] {
            record_wall_us(v);
        }
        let p50 = wall_us_percentile(50);
        let p90 = wall_us_percentile(90);
        assert!(p50 > 0 && p50 <= p90, "p50={p50} p90={p90}");
        let s = snapshot_now();
        assert_eq!(get(&s, "grid_exp_wall_us_count", None), 5);
        assert!(get(&s, "grid_exp_wall_us_max", None) >= 100_000);
        disable();
    }

    #[test]
    fn jobs_occupancy_tracks_the_peak() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        job_enter();
        job_enter();
        job_exit();
        job_enter();
        let s = snapshot_now();
        assert_eq!(get(&s, "grid_jobs_peak", None), 2);
        job_exit();
        job_exit();
        job_exit(); // extra exits saturate at zero
        disable();
    }
}
