//! The quantum-synchronized parallel engine: shards of simulated
//! processors advance on worker threads in conservative quanta bounded by
//! the minimum cross-processor latency, exchanging events only at quantum
//! boundaries — the Wisconsin Wind Tunnel's parallel-simulation
//! discipline.
//!
//! # Relation to [`Engine`](crate::Engine)
//!
//! The cooperative engine's target tasks are `!Send` by design
//! (`Rc`-shared machine models, `RefCell` state), so they cannot migrate
//! onto worker threads. This module is the thread-parallel half of the
//! discipline for workloads that *are* `Send`: actors exchanging typed
//! messages. No machine model runs on it: every simulation runs on the
//! cooperative engine's single calendar queue, and cores are used
//! across experiments instead (`make_tables --jobs`).
//!
//! # Why determinism holds
//!
//! * **Lookahead.** Every message costs at least `lookahead` cycles, and
//!   the quantum never exceeds the lookahead. A message sent inside
//!   quantum window *k* therefore arrives at or after the start of window
//!   *k + 1*: when a shard processes window *k*, no event that could land
//!   in it is still in flight. This is the paper's argument that within a
//!   100-cycle quantum no processor can observe another's actions.
//! * **Intrinsic merge order.** Deliveries are ordered by
//!   `(arrival, source processor, per-source send index)` — a key the
//!   sender fixes, independent of shard layout or thread timing. Shards
//!   exchange staged messages under a barrier at each boundary and merge
//!   them in that order.
//! * **Actor isolation.** An actor owns its state and interacts only
//!   through messages, so its behaviour is a function of its delivery
//!   sequence — which the merge order fixes.
//!
//! Together these make the run's outcome byte-identical for **any** shard
//! count and **any** quantum in `1..=lookahead`; the determinism and
//! proptest suites hold the engine to exactly that.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::time::{Cycles, ProcId};

/// A sense-reversing spin barrier that can be poisoned.
///
/// `std::sync::Barrier` has no poisoning: if one worker panics while its
/// peers are parked at the barrier, the run deadlocks instead of
/// propagating the panic. Here a panicking worker (via [`PoisonOnPanic`])
/// marks the barrier, every waiter observes the mark and bails out, and
/// the join surfaces the original panic payload. Quanta are short, so the
/// yield-spin also costs less than a mutex/condvar round trip.
#[derive(Debug)]
struct QuantumBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

/// Error returned by [`QuantumBarrier::wait`] when a peer panicked.
struct Poisoned;

impl QuantumBarrier {
    fn new(n: usize) -> Self {
        QuantumBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn wait(&self) -> Result<(), Poisoned> {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Release);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
        } else {
            while self.generation.load(Ordering::Acquire) == generation {
                if self.poisoned.load(Ordering::Acquire) {
                    return Err(Poisoned);
                }
                std::thread::yield_now();
            }
        }
        if self.poisoned.load(Ordering::Acquire) {
            Err(Poisoned)
        } else {
            Ok(())
        }
    }
}

/// Poisons the barrier if the owning worker unwinds, freeing its peers.
struct PoisonOnPanic<'a>(&'a QuantumBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

/// A message delivered to an actor.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Msg {
    /// Sending processor.
    pub src: ProcId,
    /// Application-defined discriminator.
    pub tag: u64,
    /// Application-defined payload.
    pub value: u64,
    /// Arrival time (the receiver's clock is advanced to at least this).
    pub at: Cycles,
}

/// A simulated processor's program under the parallel engine: reacts to
/// start-of-run and to each delivered message, charging computation and
/// sending messages through [`ParCpu`].
pub trait Actor {
    /// Called once at time zero.
    fn on_start(&mut self, cpu: &mut ParCpu);
    /// Called for every delivered message, in deterministic
    /// `(arrival, source, send index)` order.
    fn on_message(&mut self, cpu: &mut ParCpu, msg: Msg);
}

/// Configuration of a [`ParEngine`].
#[derive(Copy, Clone, Debug)]
pub struct ParConfig {
    /// Worker threads; each owns one contiguous shard of processors.
    /// Clamped to the processor count.
    pub shards: usize,
    /// Minimum message latency: every send must cost at least this many
    /// cycles. The WWT lookahead (100-cycle network latency).
    pub lookahead: Cycles,
    /// Conservative advance per round, `1..=lookahead`. The paper runs
    /// quantum = lookahead; smaller quanta are legal (and byte-identical,
    /// just slower).
    pub quantum: Cycles,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            shards: 1,
            lookahead: 100,
            quantum: 100,
        }
    }
}

/// Measurements of one simulated processor after a [`ParEngine`] run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ParProcStat {
    /// Final local clock.
    pub clock: Cycles,
    /// Cycles charged via [`ParCpu::compute`].
    pub computed: Cycles,
    /// Messages sent.
    pub sent: u64,
    /// Messages received.
    pub received: u64,
    /// Order-sensitive fold of every delivery `(src, tag, value, at)`:
    /// equal checksums mean equal delivery sequences.
    pub checksum: u64,
}

/// The result of a parallel run: per-processor measurements, comparable
/// byte-for-byte across shard counts and quantum sizes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParReport {
    /// One entry per processor, in processor order.
    pub procs: Vec<ParProcStat>,
}

impl ParReport {
    /// The largest final clock (the run's makespan).
    pub fn elapsed(&self) -> Cycles {
        self.procs.iter().map(|p| p.clock).max().unwrap_or(0)
    }

    /// Total messages delivered across all processors.
    pub fn delivered(&self) -> u64 {
        self.procs.iter().map(|p| p.received).sum()
    }
}

/// One in-flight message, keyed for the deterministic boundary merge.
#[derive(Copy, Clone, Debug)]
struct Envelope {
    at: Cycles,
    src: ProcId,
    /// Per-source send counter: fixes the order of same-time deliveries
    /// from one sender regardless of shard layout.
    send_idx: u64,
    dest: ProcId,
    tag: u64,
    value: u64,
}

impl Envelope {
    fn key(&self) -> (Cycles, usize, u64) {
        (self.at, self.src.index(), self.send_idx)
    }
}

impl PartialEq for Envelope {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Envelope {}
impl PartialOrd for Envelope {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Envelope {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: min-heap via BinaryHeap.
        other.key().cmp(&self.key())
    }
}

/// The handle an [`Actor`] uses to observe and advance its processor.
#[derive(Debug)]
pub struct ParCpu<'a> {
    id: ProcId,
    clock: Cycles,
    lookahead: Cycles,
    computed: &'a mut Cycles,
    /// Doubles as the per-source send index for the boundary merge key.
    sent: &'a mut u64,
    staged: &'a mut Vec<Envelope>,
}

impl ParCpu<'_> {
    /// This processor's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The local clock, in cycles.
    pub fn clock(&self) -> Cycles {
        self.clock
    }

    /// Charges `cycles` of computation to the local clock.
    pub fn compute(&mut self, cycles: Cycles) {
        self.clock += cycles;
        *self.computed += cycles;
    }

    /// Sends a message arriving `latency` cycles after the local clock.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is below the configured lookahead — that would
    /// let a message land inside the current quantum and break the
    /// conservative advance.
    pub fn send(&mut self, dest: ProcId, tag: u64, value: u64, latency: Cycles) {
        assert!(
            latency >= self.lookahead,
            "send latency {latency} below lookahead {}",
            self.lookahead
        );
        let idx = *self.sent;
        *self.sent += 1;
        self.staged.push(Envelope {
            at: self.clock + latency,
            src: self.id,
            send_idx: idx,
            dest,
            tag,
            value,
        });
    }
}

type ActorBuilder = Box<dyn FnOnce() -> Box<dyn Actor> + Send>;

/// The quantum-synchronized parallel engine. See the module docs for the
/// discipline and the determinism argument.
///
/// # Example
///
/// ```
/// use wwt_sim::parallel::{workloads, ParConfig, ParEngine};
///
/// let run = |shards| {
///     let mut e = ParEngine::new(8, ParConfig { shards, ..ParConfig::default() });
///     workloads::install_ring(&mut e, 8, 5, 40);
///     e.run()
/// };
/// // Byte-identical results on one thread and four.
/// assert_eq!(run(1), run(4));
/// ```
pub struct ParEngine {
    nprocs: usize,
    config: ParConfig,
    builders: Vec<Option<ActorBuilder>>,
}

impl std::fmt::Debug for ParEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParEngine")
            .field("nprocs", &self.nprocs)
            .field("config", &self.config)
            .finish()
    }
}

impl ParEngine {
    /// Creates an engine for `nprocs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is zero or the quantum is outside
    /// `1..=lookahead`.
    pub fn new(nprocs: usize, config: ParConfig) -> Self {
        assert!(nprocs > 0, "machine must have at least one processor");
        assert!(
            (1..=config.lookahead).contains(&config.quantum),
            "quantum {} outside 1..={}",
            config.quantum,
            config.lookahead
        );
        ParEngine {
            nprocs,
            config,
            builders: (0..nprocs).map(|_| None).collect(),
        }
    }

    /// Installs the actor for processor `p`. The builder runs on the
    /// owning worker thread, so the actor itself need not be `Send`.
    ///
    /// # Panics
    ///
    /// Panics if an actor was already installed for `p`.
    pub fn spawn<A: Actor + 'static>(
        &mut self,
        p: ProcId,
        builder: impl FnOnce() -> A + Send + 'static,
    ) {
        let slot = &mut self.builders[p.index()];
        assert!(slot.is_none(), "actor already installed for {p}");
        *slot = Some(Box::new(move || Box::new(builder())));
    }

    /// The shard owning processor `p` (contiguous blocks, same layout as
    /// the cooperative engine's sharded queue).
    fn shard_of(nprocs: usize, nshards: usize, p: usize) -> usize {
        p * nshards / nprocs
    }

    /// Runs the simulation to completion and returns per-processor
    /// measurements.
    pub fn run(mut self) -> ParReport {
        let nshards = self.config.shards.clamp(1, self.nprocs);
        let nprocs = self.nprocs;
        let quantum = self.config.quantum;
        let lookahead = self.config.lookahead;

        // Partition builders into per-shard work before spawning.
        let mut per_shard: Vec<Vec<(usize, ActorBuilder)>> =
            (0..nshards).map(|_| Vec::new()).collect();
        for (i, b) in self.builders.iter_mut().enumerate() {
            if let Some(b) = b.take() {
                per_shard[Self::shard_of(nprocs, nshards, i)].push((i, b));
            }
        }

        let barrier = QuantumBarrier::new(nshards);
        let mailboxes: Vec<Mutex<Vec<Envelope>>> =
            (0..nshards).map(|_| Mutex::new(Vec::new())).collect();
        let round_min = AtomicU64::new(u64::MAX);
        let round_pending = AtomicU64::new(0);
        let stats: Vec<Mutex<Vec<(usize, ParProcStat)>>> =
            (0..nshards).map(|_| Mutex::new(Vec::new())).collect();

        std::thread::scope(|s| {
            let handles: Vec<_> = per_shard
                .into_iter()
                .enumerate()
                .map(|(shard, work)| {
                    let barrier = &barrier;
                    let mailboxes = &mailboxes;
                    let round_min = &round_min;
                    let round_pending = &round_pending;
                    let stats = &stats;
                    s.spawn(move || {
                        shard_main(ShardCtx {
                            shard,
                            nprocs,
                            nshards,
                            quantum,
                            lookahead,
                            work,
                            barrier,
                            mailboxes,
                            round_min,
                            round_pending,
                            out: &stats[shard],
                        });
                    })
                })
                .collect();
            // Join explicitly so a worker panic (e.g. an actor
            // undercutting the lookahead) surfaces with its own message
            // rather than the scope's generic one.
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        let mut procs = vec![ParProcStat::default(); nprocs];
        for m in &stats {
            for &(i, st) in m.lock().unwrap().iter() {
                procs[i] = st;
            }
        }
        ParReport { procs }
    }
}

struct ShardCtx<'a> {
    shard: usize,
    nprocs: usize,
    nshards: usize,
    quantum: Cycles,
    lookahead: Cycles,
    work: Vec<(usize, ActorBuilder)>,
    barrier: &'a QuantumBarrier,
    mailboxes: &'a [Mutex<Vec<Envelope>>],
    round_min: &'a AtomicU64,
    round_pending: &'a AtomicU64,
    out: &'a Mutex<Vec<(usize, ParProcStat)>>,
}

/// One worker thread: owns its shard's actors and event queue, advances
/// in quanta, and exchanges staged messages at each boundary.
fn shard_main(ctx: ShardCtx<'_>) {
    // If this worker unwinds (an actor panicked), free the peers parked at
    // the barrier so the run propagates the panic instead of deadlocking.
    let _poison = PoisonOnPanic(ctx.barrier);
    // Host-metrics flag, cached once per run (`SimConfig::trace`
    // discipline). Timing uses host wall clocks and never feeds back into
    // simulated state, so determinism is untouched.
    let obs = wwt_obs::enabled();
    struct Owned {
        proc: usize,
        actor: Box<dyn Actor>,
        stat: ParProcStat,
    }
    // Build actors on this thread (shard-local ownership: the actor state
    // never crosses a thread boundary).
    let mut owned: Vec<Owned> = ctx
        .work
        .into_iter()
        .map(|(proc, build)| Owned {
            proc,
            actor: build(),
            stat: ParProcStat::default(),
        })
        .collect();
    // Index of each owned proc in `owned`.
    let slot_of: std::collections::HashMap<usize, usize> =
        owned.iter().enumerate().map(|(s, o)| (o.proc, s)).collect();

    let mut queue: BinaryHeap<Envelope> = BinaryHeap::new();
    let mut staged: Vec<Envelope> = Vec::new();

    // Time zero: run every owned actor's start hook.
    for o in owned.iter_mut() {
        let mut cpu = ParCpu {
            id: ProcId::new(o.proc),
            clock: o.stat.clock,
            lookahead: ctx.lookahead,
            computed: &mut o.stat.computed,
            sent: &mut o.stat.sent,
            staged: &mut staged,
        };
        o.actor.on_start(&mut cpu);
        o.stat.clock = cpu.clock;
    }
    distribute(
        ctx.nprocs,
        ctx.nshards,
        ctx.shard,
        obs,
        &mut staged,
        ctx.mailboxes,
    );
    // Every shard's start-of-run sends must be in the mailboxes before
    // anyone merges, or a fast shard could drain its inbox while a slow
    // one is still distributing — missing messages from round one.
    if obs_wait(ctx.barrier, obs, ctx.shard).is_err() {
        return;
    }

    loop {
        // 1. Merge the boundary exchange into the local queue.
        queue.extend(ctx.mailboxes[ctx.shard].lock().unwrap().drain(..));
        // 2. Everyone has merged; per-round accumulators are reset.
        if obs_wait(ctx.barrier, obs, ctx.shard).is_err() {
            return;
        }
        // 3. Publish this shard's horizon and load.
        let local_min = queue.peek().map_or(u64::MAX, |e| e.at);
        ctx.round_min.fetch_min(local_min, Ordering::SeqCst);
        ctx.round_pending
            .fetch_add(queue.len() as u64, Ordering::SeqCst);
        // 4. Everyone has published.
        if obs_wait(ctx.barrier, obs, ctx.shard).is_err() {
            return;
        }
        let pending = ctx.round_pending.load(Ordering::SeqCst);
        if pending == 0 {
            break;
        }
        let window_end = ctx
            .round_min
            .load(Ordering::SeqCst)
            .saturating_add(ctx.quantum);
        let busy_start = obs.then(std::time::Instant::now);
        // 5. Conservative advance: process everything strictly inside the
        // window. Nothing in flight can land in it (lookahead ≥ quantum).
        while queue.peek().is_some_and(|e| e.at < window_end) {
            let env = queue.pop().expect("peeked");
            let o = &mut owned[slot_of[&env.dest.index()]];
            o.stat.received += 1;
            o.stat.checksum = fold(o.stat.checksum, &env);
            o.stat.clock = o.stat.clock.max(env.at);
            let mut cpu = ParCpu {
                id: ProcId::new(o.proc),
                clock: o.stat.clock,
                lookahead: ctx.lookahead,
                computed: &mut o.stat.computed,
                sent: &mut o.stat.sent,
                staged: &mut staged,
            };
            o.actor.on_message(
                &mut cpu,
                Msg {
                    src: env.src,
                    tag: env.tag,
                    value: env.value,
                    at: env.at,
                },
            );
            o.stat.clock = cpu.clock;
        }
        distribute(
            ctx.nprocs,
            ctx.nshards,
            ctx.shard,
            obs,
            &mut staged,
            ctx.mailboxes,
        );
        if let Some(start) = busy_start {
            wwt_obs::shard_count(
                wwt_obs::ShardCtr::ParBusyNs,
                ctx.shard,
                start.elapsed().as_nanos() as u64,
            );
            wwt_obs::shard_count(wwt_obs::ShardCtr::ParQuanta, ctx.shard, 1);
        }
        // 6. Everyone has exchanged; shard 0 resets the accumulators for
        // the next round (no shard can publish again until barrier 2).
        if obs_wait(ctx.barrier, obs, ctx.shard).is_err() {
            return;
        }
        if ctx.shard == 0 {
            ctx.round_min.store(u64::MAX, Ordering::SeqCst);
            ctx.round_pending.store(0, Ordering::SeqCst);
        }
    }

    let mut out = ctx.out.lock().unwrap();
    for o in owned {
        out.push((o.proc, o.stat));
    }
}

/// A barrier wait that, with host metrics live, also charges the wall
/// time spent parked to the shard's barrier-wait counter.
fn obs_wait(barrier: &QuantumBarrier, obs: bool, shard: usize) -> Result<(), Poisoned> {
    if !obs {
        return barrier.wait();
    }
    let start = std::time::Instant::now();
    let r = barrier.wait();
    wwt_obs::shard_count(
        wwt_obs::ShardCtr::ParBarrierWaitNs,
        shard,
        start.elapsed().as_nanos() as u64,
    );
    r
}

/// Routes staged sends to their destination shards' mailboxes (self-sends
/// included: every message crosses the boundary, so delivery order never
/// depends on the shard layout).
fn distribute(
    nprocs: usize,
    nshards: usize,
    src_shard: usize,
    obs: bool,
    staged: &mut Vec<Envelope>,
    mailboxes: &[Mutex<Vec<Envelope>>],
) {
    let (mut same, mut cross) = (0u64, 0u64);
    for env in staged.drain(..) {
        let dest_shard = env.dest.index() * nshards / nprocs;
        if dest_shard == src_shard {
            same += 1;
        } else {
            cross += 1;
        }
        mailboxes[dest_shard].lock().unwrap().push(env);
    }
    if obs {
        wwt_obs::count(wwt_obs::Ctr::ParMsgsSameShard, same);
        wwt_obs::count(wwt_obs::Ctr::ParMsgsCrossShard, cross);
    }
}

/// Order-sensitive delivery fold (FNV-ish) for [`ParProcStat::checksum`].
fn fold(acc: u64, env: &Envelope) -> u64 {
    let mut h = acc ^ 0xcbf2_9ce4_8422_2325;
    for v in [
        env.at,
        env.src.index() as u64,
        env.send_idx,
        env.tag,
        env.value,
    ] {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Synthetic workloads for the scheduler benches and the determinism
/// suite.
pub mod workloads {
    use super::*;

    /// An EM3D-like neighbour exchange: each processor alternates
    /// `work` cycles of computation with boundary-value sends to its ring
    /// neighbours, advancing to the next iteration once both neighbours'
    /// values for the current one have arrived.
    struct RingActor {
        me: usize,
        nprocs: usize,
        iters: u64,
        work: Cycles,
        iter: u64,
        have: u64,
    }

    impl RingActor {
        fn neighbours(&self) -> (ProcId, ProcId) {
            let left = (self.me + self.nprocs - 1) % self.nprocs;
            let right = (self.me + 1) % self.nprocs;
            (ProcId::new(left), ProcId::new(right))
        }

        /// Boundary values expected per iteration. Always two: even in 1-
        /// and 2-proc rings, where both neighbours are one processor (or
        /// self), that processor sends left *and* right each iteration.
        fn expected(&self) -> u64 {
            2
        }

        fn send_boundary(&mut self, cpu: &mut ParCpu) {
            let (l, r) = self.neighbours();
            let v = (self.me as u64) << 32 | self.iter;
            cpu.send(l, self.iter, v, 100);
            cpu.send(r, self.iter, v, 100);
        }
    }

    impl Actor for RingActor {
        fn on_start(&mut self, cpu: &mut ParCpu) {
            cpu.compute(self.work);
            self.send_boundary(cpu);
        }

        fn on_message(&mut self, cpu: &mut ParCpu, msg: Msg) {
            if msg.tag != self.iter {
                // A neighbour can run at most one iteration ahead; its
                // next-iteration value counts once we get there, so stash
                // it by re-delivering to ourselves at the minimum latency.
                cpu.send(cpu.id(), msg.tag, msg.value, 100);
                return;
            }
            self.have += 1;
            if self.have == self.expected() {
                self.have = 0;
                self.iter += 1;
                if self.iter < self.iters {
                    cpu.compute(self.work);
                    self.send_boundary(cpu);
                }
            }
        }
    }

    /// Installs the ring workload on every processor of `engine`.
    pub fn install_ring(engine: &mut ParEngine, nprocs: usize, iters: u64, work: Cycles) {
        for p in 0..nprocs {
            engine.spawn(ProcId::new(p), move || RingActor {
                me: p,
                nprocs,
                iters,
                work,
                iter: 0,
                have: 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_run(nprocs: usize, shards: usize, quantum: Cycles, iters: u64) -> ParReport {
        let mut e = ParEngine::new(
            nprocs,
            ParConfig {
                shards,
                lookahead: 100,
                quantum,
            },
        );
        workloads::install_ring(&mut e, nprocs, iters, 40);
        e.run()
    }

    #[test]
    fn ring_makes_progress_and_counts_messages() {
        let r = ring_run(4, 1, 100, 3);
        assert!(r.elapsed() > 0);
        // 2 sends per proc per iteration, all delivered (possibly via the
        // stash-and-redeliver path, which adds self messages).
        assert!(r.delivered() >= 4 * 2 * 3);
        for p in &r.procs {
            assert!(p.received > 0, "every processor hears its neighbours");
        }
    }

    #[test]
    fn shard_count_never_changes_results() {
        let base = ring_run(8, 1, 100, 5);
        for shards in [2, 3, 4, 8] {
            assert_eq!(base, ring_run(8, shards, 100, 5), "shards={shards}");
        }
    }

    #[test]
    fn quantum_size_never_changes_results() {
        let base = ring_run(6, 2, 100, 4);
        for quantum in [1, 7, 33, 50, 99] {
            assert_eq!(base, ring_run(6, 2, quantum, 4), "quantum={quantum}");
        }
    }

    #[test]
    fn repeated_runs_are_identical() {
        assert_eq!(ring_run(5, 4, 100, 4), ring_run(5, 4, 100, 4));
    }

    #[test]
    fn host_metrics_never_change_results() {
        let base = ring_run(8, 2, 100, 5);
        wwt_obs::enable();
        // The registry is process-global and other tests run concurrently,
        // so assert deltas (>=), not absolute values.
        let q0: u64 = (0..2)
            .map(|s| wwt_obs::shard_counter(wwt_obs::ShardCtr::ParQuanta, s))
            .sum();
        let m0 = wwt_obs::counter(wwt_obs::Ctr::ParMsgsSameShard)
            + wwt_obs::counter(wwt_obs::Ctr::ParMsgsCrossShard);
        let observed = ring_run(8, 2, 100, 5);
        wwt_obs::disable();
        assert_eq!(base, observed, "--obs changed a ParEngine result");
        let q1: u64 = (0..2)
            .map(|s| wwt_obs::shard_counter(wwt_obs::ShardCtr::ParQuanta, s))
            .sum();
        let m1 = wwt_obs::counter(wwt_obs::Ctr::ParMsgsSameShard)
            + wwt_obs::counter(wwt_obs::Ctr::ParMsgsCrossShard);
        assert!(q1 > q0, "quantum windows were counted");
        assert!(m1 >= m0 + base.delivered(), "mailbox traffic was counted");
    }

    #[test]
    fn single_processor_ring_terminates() {
        let r = ring_run(1, 1, 100, 3);
        assert_eq!(r.procs.len(), 1);
        assert!(r.procs[0].received > 0);
    }

    #[test]
    #[should_panic(expected = "below lookahead")]
    fn undercutting_the_lookahead_panics() {
        struct Bad;
        impl Actor for Bad {
            fn on_start(&mut self, cpu: &mut ParCpu) {
                cpu.send(ProcId::new(0), 0, 0, 10);
            }
            fn on_message(&mut self, _: &mut ParCpu, _: Msg) {}
        }
        let mut e = ParEngine::new(1, ParConfig::default());
        e.spawn(ProcId::new(0), || Bad);
        e.run();
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn quantum_beyond_lookahead_is_rejected() {
        let _ = ParEngine::new(
            1,
            ParConfig {
                shards: 1,
                lookahead: 100,
                quantum: 101,
            },
        );
    }
}
