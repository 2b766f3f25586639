//! The shared-memory machine: nodes, global allocation, and the costed
//! shared/private access paths.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use wwt_mem::{AccessKind, Cache, GAddr, LineState, NodeMem, Segment, Tlb};
use wwt_sim::{
    CellPool, Counter, Cpu, Cycles, Engine, FastMap, FastSet, HwBarrier, Kind, Sim, WaitCell,
};

use crate::config::{AllocPolicy, ProtocolMode, SmConfig};
use crate::protocol::{DirState, Directory};

pub(crate) struct SmNode {
    pub(crate) mem: NodeMem,
    pub(crate) cache: Cache,
    pub(crate) tlb: Tlb,
    pub(crate) dir: Directory,
    pub(crate) dir_busy: Cycles,
    /// Outstanding prefetches: block -> completion cell (MSHR-style, so
    /// demand misses merge into in-flight prefetches instead of issuing
    /// duplicate transactions).
    pub(crate) pending_prefetch: FastMap<u64, WaitCell>,
    /// Blocks parked in local memory by the Stache policy.
    pub(crate) stache: FastSet<u64>,
}

impl SmNode {
    fn new(config: &SmConfig, nprocs: usize, seed: u64) -> Self {
        SmNode {
            mem: NodeMem::new(),
            cache: Cache::new(config.arch.cache, seed),
            tlb: Tlb::new(config.arch.tlb_entries),
            dir: Directory::new(config.arch.cache.block_bytes, nprocs),
            dir_busy: 0,
            pending_prefetch: FastMap::default(),
            stache: FastSet::default(),
        }
    }
}

/// The simulated `Dir_nNB` shared-memory machine.
///
/// Create one per [`Engine`] and hand `Rc<SmMachine>` clones plus
/// [`Cpu`] handles to the per-processor tasks. Shared data is allocated
/// with [`SmMachine::gmalloc`] and accessed through the costed async
/// accessors ([`SmMachine::read_f64`], [`SmMachine::touch_write`], ...),
/// which stall the calling processor for coherence transactions exactly as
/// a sequentially consistent machine would.
pub struct SmMachine {
    sim: Rc<Sim>,
    config: SmConfig,
    pub(crate) nodes: RefCell<Vec<SmNode>>,
    barrier: HwBarrier,
    rr_next: Cell<usize>,
    watchers: RefCell<FastMap<u64, Vec<WaitCell>>>,
    /// Recycled completion cells for the per-miss transact path.
    pub(crate) cell_pool: CellPool,
}

impl fmt::Debug for SmMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmMachine")
            .field("nprocs", &self.nprocs())
            .field("config", &self.config)
            .finish()
    }
}

impl SmMachine {
    /// Creates a shared-memory machine bound to `engine`.
    ///
    /// # Panics
    ///
    /// Panics if the machine has more than 128 nodes (the full-map
    /// directory width).
    pub fn new(engine: &Engine, config: SmConfig) -> Rc<Self> {
        let sim = Rc::clone(engine.sim());
        let n = sim.nprocs();
        assert!(n <= 128, "Dir_nNB full map supports up to 128 nodes");
        let seed = sim.config().seed;
        Rc::new(SmMachine {
            sim,
            nodes: RefCell::new(
                (0..n)
                    .map(|i| SmNode::new(&config, n, seed.wrapping_add(0x5a5a + i as u64)))
                    .collect(),
            ),
            barrier: HwBarrier::new(n, config.arch.barrier_latency),
            config,
            rr_next: Cell::new(0),
            watchers: RefCell::new(FastMap::default()),
            cell_pool: CellPool::new(),
        })
    }

    /// Number of nodes.
    pub fn nprocs(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// The machine configuration.
    pub fn config(&self) -> &SmConfig {
        &self.config
    }

    /// The simulator handle.
    pub fn sim(&self) -> &Rc<Sim> {
        &self.sim
    }

    // ----- allocation -------------------------------------------------------

    /// Allocates shared memory according to the configured
    /// [`AllocPolicy`]: round-robin across nodes per allocation (the
    /// paper's parmacs default), or on the requesting node (`requester`)
    /// under the local policy of Table 17.
    pub fn gmalloc(&self, requester: usize, bytes: u64, align: u64) -> GAddr {
        let node = match self.config.alloc_policy {
            AllocPolicy::RoundRobin => {
                let n = self.rr_next.get();
                self.rr_next.set((n + 1) % self.nprocs());
                n
            }
            AllocPolicy::Local => requester,
        };
        self.gmalloc_on(node, bytes, align)
    }

    /// Allocates shared memory homed on a specific node (the "local
    /// allocation" policy of Table 17 when `node` is the toucher).
    pub fn gmalloc_on(&self, node: usize, bytes: u64, align: u64) -> GAddr {
        let off = self.nodes.borrow_mut()[node]
            .mem
            .alloc(bytes, align.max(32));
        GAddr::new(Segment::Shared, node, off)
    }

    /// Allocates private (incoherent, node-local) memory on `node`.
    pub fn alloc_private(&self, node: usize, bytes: u64, align: u64) -> GAddr {
        let off = self.nodes.borrow_mut()[node].mem.alloc(bytes, align.max(8));
        GAddr::new(Segment::Private, node, off)
    }

    // ----- uncosted backing-store access (setup / verification) ------------

    /// Reads an `f64` without simulated cost.
    pub fn peek_f64(&self, ga: GAddr) -> f64 {
        self.nodes.borrow()[ga.node()].mem.read_f64(ga.offset())
    }

    /// Writes an `f64` without simulated cost.
    pub fn poke_f64(&self, ga: GAddr, v: f64) {
        self.nodes.borrow_mut()[ga.node()]
            .mem
            .write_f64(ga.offset(), v)
    }

    /// Reads a `u64` without simulated cost.
    pub fn peek_u64(&self, ga: GAddr) -> u64 {
        self.nodes.borrow()[ga.node()].mem.read_u64(ga.offset())
    }

    /// Writes a `u64` without simulated cost.
    pub fn poke_u64(&self, ga: GAddr, v: u64) {
        self.nodes.borrow_mut()[ga.node()]
            .mem
            .write_u64(ga.offset(), v)
    }

    /// Bulk-reads `f64`s without simulated cost (pair with
    /// [`SmMachine::touch_read`] for the memory-system charge).
    pub fn peek_f64s(&self, ga: GAddr, dst: &mut [f64]) {
        self.nodes.borrow()[ga.node()]
            .mem
            .read_f64s(ga.offset(), dst)
    }

    /// Bulk-writes `f64`s without simulated cost (pair with
    /// [`SmMachine::touch_write`] for the memory-system charge).
    pub fn poke_f64s(&self, ga: GAddr, src: &[f64]) {
        self.nodes.borrow_mut()[ga.node()]
            .mem
            .write_f64s(ga.offset(), src)
    }

    /// Reads a `u32` without simulated cost.
    pub fn peek_u32(&self, ga: GAddr) -> u32 {
        self.nodes.borrow()[ga.node()].mem.read_u32(ga.offset())
    }

    /// Writes a `u32` without simulated cost.
    pub fn poke_u32(&self, ga: GAddr, v: u32) {
        self.nodes.borrow_mut()[ga.node()]
            .mem
            .write_u32(ga.offset(), v)
    }

    // ----- protocol state accessors (used by protocol.rs) ------------------

    pub(crate) fn dir_state(&self, home: usize, block: GAddr) -> DirState {
        self.nodes.borrow()[home].dir.get(block)
    }

    pub(crate) fn set_dir_state(&self, home: usize, block: GAddr, st: DirState) {
        self.nodes.borrow_mut()[home].dir.set(block, st);
    }

    /// Whether `block`'s home directory lists `p` (as a sharer or as the
    /// exclusive owner).
    pub(crate) fn dir_lists(&self, home: usize, block: GAddr, p: usize) -> bool {
        self.nodes.borrow()[home].dir.lists(block, p)
    }

    /// Drops `p`'s copy of `block` from its home directory.
    pub(crate) fn dir_drop_copy(&self, home: usize, block: GAddr, p: usize) {
        self.nodes.borrow_mut()[home].dir.drop_copy(block, p);
    }

    /// Directory state of `block` plus its home's busy horizon, read under
    /// one borrow (the entry read of every `dir_service` request).
    pub(crate) fn dir_read(&self, home: usize, block: GAddr) -> (DirState, Cycles) {
        let nodes = self.nodes.borrow();
        let node = &nodes[home];
        (node.dir.get(block), node.dir_busy)
    }

    /// Writes `block`'s new directory state and the home's busy horizon
    /// under one borrow (the exit write of every `dir_service` request).
    pub(crate) fn dir_write(&self, home: usize, block: GAddr, st: DirState, busy: Cycles) {
        let mut nodes = self.nodes.borrow_mut();
        let node = &mut nodes[home];
        node.dir_busy = busy;
        node.dir.set(block, st);
    }

    pub(crate) fn cache_invalidate(&self, node: usize, block: GAddr) {
        let mut nodes = self.nodes.borrow_mut();
        nodes[node].cache.invalidate(block.raw());
        // An invalidation also voids any staled copy in local memory.
        nodes[node].stache.remove(&block.raw());
    }

    pub(crate) fn cache_downgrade(&self, node: usize, block: GAddr) {
        self.nodes.borrow_mut()[node].cache.downgrade(block.raw());
    }

    pub(crate) fn clear_pending_prefetch(&self, node: usize, block: GAddr) {
        self.nodes.borrow_mut()[node]
            .pending_prefetch
            .remove(&block.raw());
    }

    /// Installs a clean copy of `block` at `node` (prefetch arrival),
    /// returning the raw block address of any displaced valid victim.
    pub(crate) fn cache_fill_clean(&self, node: usize, block: GAddr) -> Option<u64> {
        self.nodes.borrow_mut()[node]
            .cache
            .fill(block.raw(), LineState::Clean)
            .map(|ev| ev.block)
    }

    // ----- costed access paths ----------------------------------------------

    /// Charges the memory-system cost of reading `bytes` at `ga`
    /// (private data: local cache simulation; shared data: coherence
    /// transactions that stall the caller). Returns the number of cache
    /// misses the access took, so callers modeling value staleness can
    /// tell a (possibly stale) hit from a refreshing miss.
    pub async fn touch_read(self: &Rc<Self>, cpu: &Cpu, ga: GAddr, bytes: u64) -> u32 {
        self.access(cpu, ga, bytes, AccessKind::Read).await
    }

    /// Charges the memory-system cost of writing `bytes` at `ga`.
    /// Returns the number of cache misses (including upgrades).
    pub async fn touch_write(self: &Rc<Self>, cpu: &Cpu, ga: GAddr, bytes: u64) -> u32 {
        self.access(cpu, ga, bytes, AccessKind::Write).await
    }

    pub(crate) async fn access(
        self: &Rc<Self>,
        cpu: &Cpu,
        ga: GAddr,
        bytes: u64,
        kind: AccessKind,
    ) -> u32 {
        match ga.segment() {
            Segment::Private => self.private_touch(cpu, ga, bytes, kind),
            Segment::Shared => self.shared_touch(cpu, ga, bytes, kind).await,
        }
    }

    fn private_touch(&self, cpu: &Cpu, ga: GAddr, bytes: u64, kind: AccessKind) -> u32 {
        debug_assert_eq!(ga.node(), cpu.id().index(), "private data is node-local");
        let out = {
            let mut nodes = self.nodes.borrow_mut();
            let node = &mut nodes[cpu.id().index()];
            wwt_mem::touch(&mut node.cache, &mut node.tlb, ga.raw(), bytes, kind)
        };
        if out.misses > 0 {
            // Private victims cost 1 cycle into the write buffer; shared
            // victims displaced by private fills still need protocol action.
            cpu.charge(
                Kind::PrivMiss,
                out.misses as Cycles * self.config.priv_miss_total(),
            );
            cpu.count(Counter::PrivMisses, out.misses as u64);
        }
        if out.tlb_misses > 0 {
            cpu.charge(
                Kind::TlbMiss,
                out.tlb_misses as Cycles * self.config.arch.tlb_miss,
            );
            cpu.count(Counter::TlbMisses, out.tlb_misses as u64);
        }
        out.misses + out.upgrades
    }

    async fn shared_touch(
        self: &Rc<Self>,
        cpu: &Cpu,
        ga: GAddr,
        bytes: u64,
        kind: AccessKind,
    ) -> u32 {
        if bytes == 0 {
            return 0;
        }
        // Catch up with global time before probing, so protocol events
        // (invalidations, prefetch arrivals) up to our local clock have
        // been applied to our cache.
        // Clock value certified by the resync. While the local clock still
        // equals it, another resync is provably a no-op (no charge has
        // happened and global time only moves forward), so the hit path
        // below can skip the second resync without changing any event's
        // order.
        let mut synced_at = cpu.resync_if_ahead().await;
        let cfg = &self.config;
        let me = cpu.id().index();
        let block_bytes = cfg.arch.cache.block_bytes;
        // In bulk-update mode shared writes do not take ownership; the
        // producer publishes explicitly with `bulk_publish`.
        let cache_kind = match (cfg.protocol, kind) {
            (ProtocolMode::BulkUpdate, AccessKind::Write) => AccessKind::Read,
            _ => kind,
        };
        let first = ga.raw() & !(block_bytes - 1);
        let last = (ga.raw() + bytes - 1) & !(block_bytes - 1);
        let mut block_raw = first;
        let mut misses = 0u32;
        loop {
            let block = GAddr::from_raw(block_raw);
            // TLB and cache probe, plus the directory check a hit needs,
            // all under one borrow of the node table.
            let page = block_raw & !(wwt_mem::PAGE_BYTES - 1);
            let (tlb_hit, result, listed) = {
                let mut nodes = self.nodes.borrow_mut();
                let node = &mut nodes[me];
                let tlb_hit = node.tlb.access(page);
                let result = node.cache.access(block_raw, cache_kind);
                // A hit counts only while the directory still attributes
                // the copy to us; otherwise an invalidation is posted (in
                // flight on the event queue) and the access races with it
                // in real time. We resolve that race in the invalidation's
                // favor — otherwise a deterministic lock-step program
                // could touch the line just before every arrival and never
                // observe any invalidation.
                let listed =
                    result.hit && !result.upgrade && nodes[block.node()].dir.lists(block, me);
                (tlb_hit, result, listed)
            };
            if !tlb_hit {
                cpu.charge(Kind::TlbMiss, cfg.arch.tlb_miss);
                cpu.count(Counter::TlbMisses, 1);
            }
            let result = if result.hit && !result.upgrade && !listed {
                // Take the in-flight invalidation now and reload.
                self.cache_invalidate(me, block);
                self.nodes.borrow_mut()[me]
                    .cache
                    .access(block_raw, cache_kind)
            } else {
                result
            };
            if result.hit && !result.upgrade {
                if cpu.clock() != synced_at {
                    synced_at = cpu.resync_if_ahead().await;
                }
            } else {
                // Replacement of the victim displaced by this fill.
                if let Some(ev) = result.evicted {
                    let victim = GAddr::from_raw(ev.block);
                    match (victim.segment(), ev.state) {
                        (Segment::Private, _) => cpu.charge(Kind::PrivMiss, cfg.arch.replacement),
                        (Segment::Shared, state) => {
                            cpu.charge(
                                Kind::PrivMiss,
                                if state == LineState::Dirty {
                                    cfg.repl_shared_dirty
                                } else {
                                    cfg.repl_shared_clean
                                },
                            );
                            if cfg.stache {
                                // Park the block locally: the directory
                                // still lists us, no message is sent, and
                                // a re-miss refills from local memory.
                                self.nodes.borrow_mut()[me].stache.insert(victim.raw());
                            } else {
                                self.shared_eviction(cpu, victim, state);
                            }
                        }
                    }
                }
                let (charge_kind, counter) = if result.upgrade {
                    (Kind::WriteFault, Counter::WriteFaults)
                } else if block.node() == me {
                    (Kind::ShMissLocal, Counter::ShMissesLocal)
                } else {
                    (Kind::ShMissRemote, Counter::ShMissesRemote)
                };
                // A re-miss on a block parked in the local stache (and
                // still attributed to us by the directory) refills at
                // local-memory cost: no protocol transaction.
                if cfg.stache
                    && self.nodes.borrow()[me].stache.contains(&block_raw)
                    && self.dir_lists(block.node(), block, me)
                    && cache_kind == AccessKind::Read
                {
                    cpu.charge(Kind::PrivMiss, cfg.priv_miss_total());
                    cpu.count(Counter::PrivMisses, 1);
                    if block_raw == last {
                        break;
                    }
                    block_raw += block_bytes;
                    continue;
                }
                // A read miss on a block with an in-flight prefetch merges
                // into it (MSHR behavior): wait for the prefetch response
                // instead of issuing a duplicate transaction.
                let inflight = (cache_kind == AccessKind::Read)
                    .then(|| {
                        self.nodes.borrow()[me]
                            .pending_prefetch
                            .get(&block_raw)
                            .cloned()
                    })
                    .flatten();
                misses += 1;
                if let Some(cell) = inflight {
                    cell.wait(cpu, charge_kind).await;
                } else {
                    cpu.count(counter, 1);
                    self.transact(cpu, block, cache_kind == AccessKind::Write, charge_kind)
                        .await;
                }
            }
            if block_raw == last {
                break;
            }
            block_raw += block_bytes;
        }
        misses
    }

    /// Costed shared/private read of an `f64`.
    pub async fn read_f64(self: &Rc<Self>, cpu: &Cpu, ga: GAddr) -> f64 {
        self.access(cpu, ga, 8, AccessKind::Read).await;
        self.peek_f64(ga)
    }

    /// Costed shared/private write of an `f64`.
    pub async fn write_f64(self: &Rc<Self>, cpu: &Cpu, ga: GAddr, v: f64) {
        self.access(cpu, ga, 8, AccessKind::Write).await;
        self.poke_f64(ga, v);
        self.notify(cpu, ga);
    }

    /// Costed shared/private read of a `u64`.
    pub async fn read_u64(self: &Rc<Self>, cpu: &Cpu, ga: GAddr) -> u64 {
        self.access(cpu, ga, 8, AccessKind::Read).await;
        self.peek_u64(ga)
    }

    /// Costed shared/private write of a `u64`; wakes any watchers of `ga`.
    pub async fn write_u64(self: &Rc<Self>, cpu: &Cpu, ga: GAddr, v: u64) {
        self.access(cpu, ga, 8, AccessKind::Write).await;
        self.poke_u64(ga, v);
        self.notify(cpu, ga);
    }

    /// The machine's atomic swap instruction: atomically exchanges the
    /// `u64` at `ga` with `v`, returning the previous value. Obtains the
    /// block exclusively, like a write.
    pub async fn swap_u64(self: &Rc<Self>, cpu: &Cpu, ga: GAddr, v: u64) -> u64 {
        self.access(cpu, ga, 8, AccessKind::Write).await;
        let old = self.peek_u64(ga);
        self.poke_u64(ga, v);
        self.notify(cpu, ga);
        old
    }

    // ----- flag watching (spin-wait support) --------------------------------

    /// Registers interest in writes to `ga`; the returned cell completes at
    /// the next typed write to exactly this address.
    pub fn watch(&self, ga: GAddr) -> WaitCell {
        let cell = WaitCell::new();
        self.watchers
            .borrow_mut()
            .entry(ga.raw())
            .or_default()
            .push(cell.clone());
        cell
    }

    fn notify(&self, cpu: &Cpu, ga: GAddr) {
        let cells = self.watchers.borrow_mut().remove(&ga.raw());
        if let Some(cells) = cells {
            for c in cells {
                c.complete(&self.sim, cpu.clock());
            }
        }
    }

    /// Spins (in the MCS sense: blocked on a locally cached value, woken by
    /// the eventual invalidation) until the `u64` at `ga` is at least
    /// `target`, charging waits to `kind`. Every re-check performs a real,
    /// costed read, so the coherence traffic of the spin-and-invalidate
    /// pattern is modeled faithfully.
    pub async fn flag_wait(self: &Rc<Self>, cpu: &Cpu, ga: GAddr, target: u64, kind: Kind) -> u64 {
        loop {
            let v = self.read_u64(cpu, ga).await;
            if v >= target {
                return v;
            }
            let cell = self.watch(ga);
            cell.wait(cpu, kind).await;
        }
    }

    // ----- flush and prefetch hints (Section 5.3.4 remedies) ---------------

    /// Flushes `[ga, ga + bytes)` from the caller's cache: each resident
    /// block is self-invalidated (a clean one sends a replacement hint, a
    /// dirty one writes back), turning the producer's later 2-message
    /// invalidation into a local replacement — the consumer-side remedy
    /// the paper discusses in Section 5.3.4. Returns blocks flushed.
    pub async fn flush(self: &Rc<Self>, cpu: &Cpu, ga: GAddr, bytes: u64) -> u32 {
        if bytes == 0 {
            return 0;
        }
        cpu.resync().await;
        let cfg = &self.config;
        let me = cpu.id().index();
        let block_bytes = cfg.arch.cache.block_bytes;
        let first = ga.raw() & !(block_bytes - 1);
        let last = (ga.raw() + bytes - 1) & !(block_bytes - 1);
        let mut block_raw = first;
        let mut flushed = 0;
        loop {
            let state = self.nodes.borrow_mut()[me].cache.invalidate(block_raw);
            if let Some(st) = state {
                cpu.charge(Kind::PrivMiss, cfg.invalidate);
                self.shared_eviction(cpu, GAddr::from_raw(block_raw), st);
                flushed += 1;
            }
            if block_raw == last {
                break;
            }
            block_raw += block_bytes;
        }
        flushed
    }

    /// Issues non-binding prefetches for `[ga, ga + bytes)`: missing
    /// blocks are requested from their homes without stalling the caller
    /// (the cooperative-prefetch remedy of Section 5.3.4 — a consumer can
    /// issue these arbitrarily early). The traffic is charged and counted
    /// exactly like demand misses; only the processor stall disappears.
    /// Returns the number of blocks requested.
    pub async fn prefetch(self: &Rc<Self>, cpu: &Cpu, ga: GAddr, bytes: u64) -> u32 {
        if bytes == 0 {
            return 0;
        }
        cpu.resync().await;
        let cfg = &self.config;
        let me = cpu.id().index();
        let block_bytes = cfg.arch.cache.block_bytes;
        let first = ga.raw() & !(block_bytes - 1);
        let last = (ga.raw() + bytes - 1) & !(block_bytes - 1);
        let mut block_raw = first;
        let mut issued = 0;
        loop {
            let block = GAddr::from_raw(block_raw);
            let resident = self.nodes.borrow()[me].cache.state_of(block_raw).is_some()
                && self.dir_lists(block.node(), block, me);
            if !resident {
                // A couple of cycles to issue the prefetch instruction;
                // the line is installed only when the response arrives,
                // so a prefetch issued too late hides nothing.
                cpu.compute(2);
                let counter = if block.node() == me {
                    Counter::ShMissesLocal
                } else {
                    Counter::ShMissesRemote
                };
                cpu.count(counter, 1);
                let cell = wwt_sim::WaitCell::new();
                self.nodes.borrow_mut()[me]
                    .pending_prefetch
                    .insert(block_raw, cell.clone());
                cpu.count(Counter::BytesControl, cfg.ctrl_msg_bytes);
                let arrive = cpu.clock() + cfg.latency(me, block.node());
                let this = Rc::clone(self);
                self.sim()
                    .call_at(arrive.max(self.sim().now()), move || {
                        this.dir_service_prefetch(me, block, cell);
                    })
                    .expect("arrival is clamped to the present");
                issued += 1;
            }
            if block_raw == last {
                break;
            }
            block_raw += block_bytes;
        }
        issued
    }

    /// Application-specific *push broadcast* (the Section 5.3.4 remark
    /// that "similar protocol changes could benefit ... the broadcasts in
    /// Gauss"): the producer pushes `[ga, ga + bytes)` to **every** other
    /// node's cache with one update message per (node, block), so the
    /// consumers' subsequent reads hit instead of converging on the
    /// owner's directory. Works under either protocol mode.
    pub async fn push_broadcast(self: &Rc<Self>, cpu: &Cpu, ga: GAddr, bytes: u64) {
        if bytes == 0 {
            return;
        }
        cpu.resync().await;
        let cfg = &self.config;
        let me = cpu.id().index();
        let n = self.nprocs();
        let block_bytes = cfg.arch.cache.block_bytes;
        let first = ga.raw() & !(block_bytes - 1);
        let last = (ga.raw() + bytes - 1) & !(block_bytes - 1);
        let mut block_raw = first;
        loop {
            let block = GAddr::from_raw(block_raw);
            // The producer keeps a read-only copy; everyone becomes a
            // sharer at once.
            self.nodes.borrow_mut()[me].cache.downgrade(block_raw);
            let mut sharers = crate::protocol::Sharers::empty();
            for q in 0..n {
                sharers.insert(q);
            }
            self.set_dir_state(block.node(), block, DirState::Shared(sharers));
            for q in 0..n {
                if q == me {
                    continue;
                }
                cpu.charge(Kind::NetAccess, cfg.dir_send_msg);
                cpu.count(Counter::BytesData, cfg.data_msg_bytes);
                cpu.count(Counter::BytesControl, cfg.ctrl_msg_bytes);
                cpu.count(Counter::MessagesSent, 1);
                let arrive = cpu.clock() + cfg.latency(me, q);
                let this = Rc::clone(self);
                self.sim()
                    .call_at(arrive.max(self.sim().now()), move || {
                        this.install_copy(q, block);
                    })
                    .expect("arrival is clamped to the present");
            }
            if block_raw == last {
                break;
            }
            block_raw += block_bytes;
        }
    }

    // ----- bulk-update extension --------------------------------------------

    /// Publishes `[ga, ga + bytes)` to all current sharers under the
    /// bulk-update protocol (Section 5.3.4): one data message per
    /// (block, consumer) pair instead of the invalidate/miss 4-message
    /// pattern. A no-op charge-wise under the invalidate protocol.
    pub async fn bulk_publish(self: &Rc<Self>, cpu: &Cpu, ga: GAddr, bytes: u64) {
        if self.config.protocol != ProtocolMode::BulkUpdate || bytes == 0 {
            return;
        }
        cpu.resync().await;
        let cfg = &self.config;
        let me = cpu.id().index();
        let block_bytes = cfg.arch.cache.block_bytes;
        let first = ga.raw() & !(block_bytes - 1);
        let last = (ga.raw() + bytes - 1) & !(block_bytes - 1);
        let mut block_raw = first;
        loop {
            let block = GAddr::from_raw(block_raw);
            let h = block.node();
            if let DirState::Shared(s) = self.dir_state(h, block) {
                let consumers = s.iter().filter(|&o| o != me).count() as u64;
                if consumers > 0 {
                    cpu.compute(cfg.dir_base);
                    cpu.charge(Kind::NetAccess, consumers * cfg.dir_send_msg);
                    cpu.count(Counter::BytesData, consumers * cfg.data_msg_bytes);
                    cpu.count(Counter::BytesControl, consumers * cfg.ctrl_msg_bytes);
                    cpu.count(Counter::MessagesSent, consumers);
                }
            }
            if block_raw == last {
                break;
            }
            block_raw += block_bytes;
        }
    }

    // ----- invariants ---------------------------------------------------------

    /// Checks the protocol's cache/directory invariants and returns a
    /// description of every violation (empty when coherent):
    ///
    /// * a node holding a valid shared line must be listed by the home
    ///   directory (as a sharer or as the exclusive owner),
    /// * a dirty shared line implies exclusive ownership,
    /// * an exclusive owner in the directory must not coexist with other
    ///   holders.
    pub fn coherence_violations(&self) -> Vec<String> {
        let nodes = self.nodes.borrow();
        let mut out = Vec::new();
        for (n, node) in nodes.iter().enumerate() {
            for (raw, state) in node.cache.resident() {
                let ga = GAddr::from_raw(raw);
                if ga.segment() != Segment::Shared {
                    continue;
                }
                let home = &nodes[ga.node()].dir;
                let dir = home.get(ga);
                if !home.lists(ga, n) {
                    out.push(format!(
                        "node {n} holds {ga:?} ({state:?}) but the directory says {dir:?}"
                    ));
                }
                if state == wwt_mem::LineState::Dirty && dir != DirState::Exclusive(n) {
                    out.push(format!(
                        "node {n} holds {ga:?} dirty but the directory says {dir:?}"
                    ));
                }
            }
        }
        out
    }

    // ----- barrier ------------------------------------------------------------

    /// Waits at the machine's hardware barrier.
    pub async fn barrier(&self, cpu: &Cpu) {
        self.barrier.wait(cpu, Kind::BarrierWait).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_sim::{Engine, ProcId, Scope, SimConfig};

    fn setup(n: usize) -> (Engine, Rc<SmMachine>) {
        let e = Engine::new(n, SimConfig::default());
        let m = SmMachine::new(&e, SmConfig::default());
        (e, m)
    }

    #[test]
    fn gmalloc_round_robins_across_nodes() {
        let (_e, m) = setup(4);
        let homes: Vec<usize> = (0..8).map(|_| m.gmalloc(0, 64, 8).node()).collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn local_policy_allocates_on_requested_node() {
        let (_e, m) = setup(4);
        let a = m.gmalloc_on(2, 64, 8);
        assert_eq!(a.node(), 2);
        assert_eq!(a.segment(), Segment::Shared);
    }

    #[test]
    fn first_shared_read_misses_then_hits() {
        let (mut e, m) = setup(2);
        let x = m.gmalloc_on(1, 8, 8);
        m.poke_f64(x, 6.5);
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            let v = m0.read_f64(&c0, x).await;
            assert_eq!(v, 6.5);
            let stall = c0.clock();
            // tlb miss 20 + remote miss: 19 + req 100 + occupancy 23 + resp 100
            assert_eq!(stall, 262);
            let v2 = m0.read_f64(&c0, x).await;
            assert_eq!(v2, 6.5);
            assert_eq!(c0.clock(), stall, "second read must hit");
        });
        let r = e.run();
        let p = r.proc(ProcId::new(0));
        assert_eq!(p.counters.get(Counter::ShMissesRemote), 1);
        assert_eq!(p.matrix.by_kind(Kind::ShMissRemote), 242);
        // request 8 + response 40 bytes
        assert_eq!(p.counters.get(Counter::BytesControl), 16);
        assert_eq!(p.counters.get(Counter::BytesData), 32);
    }

    #[test]
    fn local_shared_miss_is_cheaper_than_remote() {
        let (mut e, m) = setup(2);
        let local = m.gmalloc_on(0, 8, 8);
        let remote = m.gmalloc_on(1, 8, 8);
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            let t0 = c0.clock();
            m0.read_f64(&c0, local).await;
            let local_cost = c0.clock() - t0;
            let t1 = c0.clock();
            m0.read_f64(&c0, remote).await;
            let remote_cost = c0.clock() - t1;
            assert!(local_cost < remote_cost, "{local_cost} !< {remote_cost}");
            // tlb miss 20 + local: 19 + 10 + 23 + 10 = 82
            assert_eq!(local_cost, 82);
        });
        let r = e.run();
        assert_eq!(
            r.proc(ProcId::new(0)).counters.get(Counter::ShMissesLocal),
            1
        );
    }

    #[test]
    fn producer_consumer_costs_four_messages_per_update() {
        // The EM3D pathology: producer writes, consumer reads, repeatedly.
        let (mut e, m) = setup(2);
        let x = m.gmalloc_on(0, 8, 8);
        let rounds = 10u64;
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            for k in 0..rounds {
                m0.write_f64(&c0, x, k as f64).await;
                m0.barrier(&c0).await;
                m0.barrier(&c0).await;
            }
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            for k in 0..rounds {
                m1.barrier(&c1).await;
                let v = m1.read_f64(&c1, x).await;
                assert_eq!(v, k as f64);
                m1.barrier(&c1).await;
            }
        });
        let r = e.run();
        let producer = r.proc(ProcId::new(0));
        let consumer = r.proc(ProcId::new(1));
        // After the first round each write upgrades (write fault w/
        // invalidation) and each read misses remotely.
        assert_eq!(consumer.counters.get(Counter::ShMissesRemote), rounds);
        assert!(producer.counters.get(Counter::WriteFaults) >= rounds - 1);
    }

    #[test]
    fn write_fault_counts_upgrade_without_data_transfer() {
        let (mut e, m) = setup(1);
        let x = m.gmalloc_on(0, 8, 8);
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            m0.read_f64(&c0, x).await; // miss, Clean
            m0.write_f64(&c0, x, 1.0).await; // upgrade: write fault
            m0.write_f64(&c0, x, 2.0).await; // hit dirty: free
        });
        let r = e.run();
        let p = r.proc(ProcId::new(0));
        assert_eq!(p.counters.get(Counter::WriteFaults), 1);
        assert_eq!(p.counters.get(Counter::ShMissesLocal), 1);
        assert!(p.matrix.by_kind(Kind::WriteFault) > 0);
    }

    #[test]
    fn directory_contention_queues_requests() {
        // Many processors reading distinct cold blocks homed on node 0 at
        // the same time must see queuing delay beyond the uncontended cost.
        let n = 16;
        let (mut e, m) = setup(n);
        let base = m.gmalloc_on(0, (n * 32) as u64, 32);
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let cpu = e.cpu(p);
            e.spawn(p, async move {
                let my = base.offset_by((p.index() * 32) as u64);
                m.read_f64(&cpu, my).await;
            });
        }
        let r = e.run();
        let uncontended = 242; // from first_shared_read_misses_then_hits
        let slowest = (0..n).map(|i| r.proc(ProcId::new(i)).clock).max().unwrap();
        assert!(
            slowest > uncontended + 200,
            "expected queuing delay, slowest {slowest}"
        );
    }

    #[test]
    fn flag_wait_wakes_on_write_and_recharges_miss() {
        let (mut e, m) = setup(2);
        let flag = m.gmalloc_on(1, 8, 8);
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            c0.compute(5_000);
            m0.write_u64(&c0, flag, 1).await;
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            let _sync = c1.scope(Scope::Sync);
            let v = m1.flag_wait(&c1, flag, 1, Kind::Wait).await;
            assert_eq!(v, 1);
            assert!(c1.clock() > 5_000);
        });
        let r = e.run();
        let waiter = r.proc(ProcId::new(1));
        assert!(waiter.matrix.get(Scope::Sync, Kind::Wait) > 4_000);
        // Initial read + re-read after the writer's invalidation; the flag
        // is homed on the waiter's own node, so these are local misses.
        assert!(waiter.counters.get(Counter::ShMissesLocal) >= 2);
    }

    #[test]
    fn swap_is_atomic_and_returns_old_value() {
        let (mut e, m) = setup(2);
        let x = m.gmalloc_on(0, 8, 8);
        let done = Rc::new(Cell::new(0u64));
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let cpu = e.cpu(p);
            let done = Rc::clone(&done);
            e.spawn(p, async move {
                let old = m.swap_u64(&cpu, x, (p.index() + 1) as u64).await;
                done.set(done.get() + old);
            });
        }
        e.run();
        // One of the two swaps saw 0, the other saw the first one's value.
        assert!(done.get() == 1 || done.get() == 2);
    }

    #[test]
    fn bulk_update_mode_elides_write_faults() {
        let e = Engine::new(2, SimConfig::default());
        let cfg = SmConfig {
            protocol: ProtocolMode::BulkUpdate,
            ..SmConfig::default()
        };
        let m = SmMachine::new(&e, cfg);
        let x = m.gmalloc_on(0, 8, 8);
        let mut e = e;
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            m0.read_f64(&c0, x).await;
            for k in 0..10 {
                m0.write_f64(&c0, x, k as f64).await;
                m0.bulk_publish(&c0, x, 8).await;
            }
        });
        let r = e.run();
        assert_eq!(r.proc(ProcId::new(0)).counters.get(Counter::WriteFaults), 0);
    }
}
