//! The full-map write-invalidate directory protocol (`Dir_nNB`).
//!
//! Transactions are simulated message-by-message on the event queue with
//! the costs of Table 3: a miss sends a request to the block's home node,
//! whose directory (a server with *occupancy*, so contended requests
//! queue) possibly recalls or invalidates other caches before responding.
//! The requesting processor stalls for the whole transaction (the machine
//! is sequentially consistent).

use std::fmt;
use std::rc::Rc;

use wwt_mem::{GAddr, LineState};
use wwt_sim::{Counter, Cpu, Kind, Mark, Metric, ProcId, TraceWhat, WaitCell, WaitTarget};

use crate::machine::SmMachine;

/// A compact set of sharer processor ids (up to 128 nodes).
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash)]
pub struct Sharers(u128);

impl Sharers {
    /// The empty set.
    pub fn empty() -> Self {
        Sharers(0)
    }

    /// A singleton set.
    pub fn one(p: usize) -> Self {
        let mut s = Sharers(0);
        s.insert(p);
        s
    }

    /// Inserts a processor.
    pub fn insert(&mut self, p: usize) {
        assert!(p < 128, "Dir_nNB full map supports up to 128 nodes");
        self.0 |= 1 << p;
    }

    /// Removes a processor.
    pub fn remove(&mut self, p: usize) {
        self.0 &= !(1u128 << p);
    }

    /// Membership test.
    pub fn contains(&self, p: usize) -> bool {
        (self.0 >> p) & 1 == 1
    }

    /// Number of sharers.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let p = bits.trailing_zeros() as usize;
            bits &= bits.wrapping_sub(1);
            (p < 128).then_some(p)
        })
    }
}

impl fmt::Debug for Sharers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Directory state of one cache block at its home node.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum DirState {
    /// No cached copies exist.
    #[default]
    Uncached,
    /// Read-only copies exist at the given nodes.
    Shared(Sharers),
    /// One node holds the block exclusively (possibly dirty).
    Exclusive(usize),
}

/// A home node's directory: the full-map [`DirState`] of every block,
/// directly indexed by block number and stored in the fewest host bytes
/// that encode it exactly.
///
/// Each block owns `ceil(nprocs / 32)` sharer words (4 B at the paper's
/// 32 nodes, 16 B at 128), block-major in one flat vector, plus one bit
/// in a side bitmap that marks a singleton set as the exclusive owner:
///
/// * no bit set: [`DirState::Uncached`],
/// * bits set, exclusive bit clear: [`DirState::Shared`] of those bits,
/// * exactly bit `o` set, exclusive bit set: [`DirState::Exclusive`]`(o)`.
///
/// `Shared` with an empty set has no encoding (it would read back as
/// `Uncached`), so [`Directory::set`] rejects it. The directory is read
/// on the hottest path in the simulator (every shared cache *hit* checks
/// it to resolve the race with in-flight invalidations) and spans the
/// whole shared segment, so it must stay small enough for the host's
/// caches; [`Directory::lists`] answers that check from one word.
///
/// Shared offsets come from a bump allocator, so a node's shared blocks
/// are dense from offset 0. Unindexed blocks read as
/// [`DirState::Uncached`]; the vectors grow on the first write past
/// their end.
pub(crate) struct Directory {
    block_shift: u32,
    /// Sharer words per block.
    words: usize,
    /// Sharer bitmaps: block `i` occupies `sharers[i * words..][..words]`.
    sharers: Vec<u32>,
    /// One bit per block: its single sharer is the exclusive owner.
    exclusive: Vec<u64>,
}

impl Directory {
    /// A directory for `block_bytes`-byte blocks on an `nprocs`-node
    /// machine.
    pub(crate) fn new(block_bytes: u64, nprocs: usize) -> Self {
        assert!(nprocs <= 128, "Dir_nNB full map supports up to 128 nodes");
        Directory {
            block_shift: block_bytes.trailing_zeros(),
            words: nprocs.div_ceil(32).max(1),
            sharers: Vec::new(),
            exclusive: Vec::new(),
        }
    }

    #[inline]
    fn index(&self, block: GAddr) -> usize {
        (block.offset() >> self.block_shift) as usize
    }

    #[inline]
    fn is_exclusive(&self, idx: usize) -> bool {
        self.exclusive
            .get(idx / 64)
            .is_some_and(|w| (w >> (idx % 64)) & 1 == 1)
    }

    #[inline]
    pub(crate) fn get(&self, block: GAddr) -> DirState {
        let idx = self.index(block);
        let Some(ws) = self.sharers.get(idx * self.words..(idx + 1) * self.words) else {
            return DirState::Uncached;
        };
        let bits = ws
            .iter()
            .enumerate()
            .fold(0u128, |acc, (i, &w)| acc | (u128::from(w) << (32 * i)));
        if bits == 0 {
            DirState::Uncached
        } else if self.is_exclusive(idx) {
            DirState::Exclusive(bits.trailing_zeros() as usize)
        } else {
            DirState::Shared(Sharers(bits))
        }
    }

    /// Whether the directory lists `p` for `block`, as a sharer or as the
    /// exclusive owner.
    #[inline]
    pub(crate) fn lists(&self, block: GAddr, p: usize) -> bool {
        debug_assert!(p < 32 * self.words, "node {p} beyond the machine");
        let i = self.index(block) * self.words + p / 32;
        self.sharers
            .get(i)
            .is_some_and(|w| (w >> (p % 32)) & 1 == 1)
    }

    /// Writes `block`'s state.
    ///
    /// # Panics
    ///
    /// Panics on `Shared` with an empty set, which has no encoding, and on
    /// a node id beyond the directory's sharer words.
    pub(crate) fn set(&mut self, block: GAddr, st: DirState) {
        let (bits, exclusive) = match st {
            DirState::Uncached => (0, false),
            DirState::Shared(s) => {
                assert!(!s.is_empty(), "an empty sharer set is Uncached");
                (s.0, false)
            }
            DirState::Exclusive(o) => (Sharers::one(o).0, true),
        };
        assert!(
            self.words == 4 || bits >> (32 * self.words) == 0,
            "node beyond the directory's sharer words"
        );
        let idx = self.index(block);
        let end = (idx + 1) * self.words;
        if end > self.sharers.len() {
            self.sharers.resize(end, 0);
        }
        for (i, w) in self.sharers[idx * self.words..end].iter_mut().enumerate() {
            *w = (bits >> (32 * i)) as u32;
        }
        if idx / 64 >= self.exclusive.len() {
            self.exclusive.resize(idx / 64 + 1, 0);
        }
        let x = &mut self.exclusive[idx / 64];
        *x = (*x & !(1 << (idx % 64))) | (u64::from(exclusive) << (idx % 64));
    }

    /// Drops `p`'s copy of `block` (a replacement hint or writeback
    /// arriving from `p`): `p`'s exclusive ownership becomes
    /// [`DirState::Uncached`], a sharer set loses `p` (and is `Uncached`
    /// once empty), and any other state is unchanged.
    pub(crate) fn drop_copy(&mut self, block: GAddr, p: usize) {
        debug_assert!(p < 32 * self.words, "node {p} beyond the machine");
        let idx = self.index(block);
        if let Some(w) = self.sharers.get_mut(idx * self.words + p / 32) {
            let bit = 1 << (p % 32);
            if *w & bit != 0 {
                *w &= !bit;
                // p was listed: if the entry was exclusive, p was its only
                // member and the block is now uncached.
                if let Some(x) = self.exclusive.get_mut(idx / 64) {
                    *x &= !(1 << (idx % 64));
                }
            }
        }
    }
}

impl SmMachine {
    /// Runs a coherence transaction for `block` on behalf of processor
    /// `cpu`, stalling it until the response arrives. `write` selects a
    /// read-shared or write-exclusive request. The stall is charged to
    /// `kind`.
    pub(crate) async fn transact(
        self: &Rc<Self>,
        cpu: &Cpu,
        block: GAddr,
        write: bool,
        kind: Kind,
    ) {
        cpu.resync().await;
        let p = cpu.id().index();
        let h = block.node();
        let cfg = self.config();
        let start = cpu.clock();
        if cpu.tracing() {
            cpu.trace(TraceWhat::Instant(Mark::MissStart { kind }));
        }
        // Processor-side miss handling (Table 3: 19 cycles).
        cpu.charge(kind, cfg.shared_miss);
        // Fault-plan network jitter: the SM machine has no packets to drop,
        // so perturbation degrades into extra shared-miss service latency.
        let jitter = self.sim().fault_miss_jitter();
        if jitter > 0 {
            cpu.charge(kind, jitter);
        }
        // Request message.
        cpu.count(Counter::BytesControl, cfg.ctrl_msg_bytes);
        let cell = self.cell_pool.take();
        let arrive = cpu.clock() + cfg.latency(p, h);
        let this = Rc::clone(self);
        let cell2 = cell.clone();
        self.sim()
            .call_at(arrive.max(self.sim().now()), move || {
                this.dir_service(ProcId::new(p), block, write, cell2)
            })
            .expect("arrival is clamped to the present");
        cell.wait_labeled(
            cpu,
            kind,
            "coherence reply",
            WaitTarget::Proc(ProcId::new(h)),
        )
        .await;
        self.cell_pool.put(cell);
        if cpu.tracing() {
            cpu.trace(TraceWhat::Instant(Mark::MissEnd { kind }));
            cpu.sim()
                .trace_sample(Metric::ShMissService, cpu.clock() - start);
        }
    }

    /// Directory service for one request, at the home node. Computes the
    /// full message path (occupancy, recalls, invalidations,
    /// acknowledgements) and completes `cell` at the response time.
    fn dir_service(self: &Rc<Self>, req: ProcId, block: GAddr, write: bool, cell: WaitCell) {
        let cfg = self.config();
        let p = req.index();
        let h = block.node();
        let now = self.sim().now();
        self.sim().count(ProcId::new(h), Counter::DirRequests, 1);

        let (state, busy) = self.dir_read(h, block);
        let ts = now.max(busy);

        // Helper to attribute traffic to the requester.
        let bytes = |this: &Self, data_msgs: u64, ctrl_msgs: u64| {
            this.sim()
                .count(req, Counter::BytesData, data_msgs * cfg.data_msg_bytes);
            this.sim().count(
                req,
                Counter::BytesControl,
                (data_msgs + ctrl_msgs) * cfg.ctrl_msg_bytes,
            );
        };

        match (write, state) {
            (false, DirState::Uncached) => {
                let occ = cfg.dir_base + cfg.dir_send_msg + cfg.dir_send_block;
                self.dir_write(h, block, DirState::Shared(Sharers::one(p)), ts + occ);
                bytes(self, 1, 0);
                cell.complete(self.sim(), ts + occ + cfg.latency(h, p));
            }
            (false, DirState::Shared(mut s)) => {
                let occ = cfg.dir_base + cfg.dir_send_msg + cfg.dir_send_block;
                s.insert(p);
                self.dir_write(h, block, DirState::Shared(s), ts + occ);
                bytes(self, 1, 0);
                cell.complete(self.sim(), ts + occ + cfg.latency(h, p));
            }
            (_, DirState::Exclusive(o)) if o == p => {
                // The requester re-misses on a block the directory still
                // thinks it owns (its writeback is in flight). Serve as if
                // the block were home.
                let occ = cfg.dir_base + cfg.dir_send_msg + cfg.dir_send_block;
                let st = if write {
                    DirState::Exclusive(p)
                } else {
                    DirState::Shared(Sharers::one(p))
                };
                self.dir_write(h, block, st, ts + occ);
                bytes(self, 1, 0);
                cell.complete(self.sim(), ts + occ + cfg.latency(h, p));
            }
            (_, DirState::Exclusive(o)) => {
                // 4-hop: recall from the owner, write back, then respond.
                // All state changes (cache and directory) apply now, so
                // state serialization follows directory-arrival order; the
                // message-path arithmetic below shapes only the response
                // latency and the directory's future occupancy.
                let occ1 = cfg.dir_base + cfg.dir_send_msg;
                let occ2 = cfg.dir_base + cfg.dir_recv_block + cfg.dir_send_block;
                let recall_at = ts + occ1 + cfg.latency(h, o);
                let wb_at = recall_at + cfg.invalidate + cfg.latency(o, h);
                let ts2 = wb_at.max(ts + occ1);
                if write {
                    self.cache_invalidate(o, block);
                    self.dir_write(h, block, DirState::Exclusive(p), ts2 + occ2);
                } else {
                    self.cache_downgrade(o, block);
                    let mut s = Sharers::one(p);
                    s.insert(o);
                    self.dir_write(h, block, DirState::Shared(s), ts2 + occ2);
                }
                cell.complete(self.sim(), ts2 + occ2 + cfg.latency(h, p));
                // recall (ctrl) + writeback (data) + response (data)
                bytes(self, 2, 1);
            }
            (true, DirState::Uncached) => {
                let occ = cfg.dir_base + cfg.dir_send_msg + cfg.dir_send_block;
                self.dir_write(h, block, DirState::Exclusive(p), ts + occ);
                bytes(self, 1, 0);
                cell.complete(self.sim(), ts + occ + cfg.latency(h, p));
            }
            (true, DirState::Shared(s)) => {
                let upgrade = s.contains(p);
                let k = u64::from(s.count()) - u64::from(upgrade);
                if k == 0 {
                    // Sole sharer: grant ownership without data.
                    let occ = cfg.dir_base + cfg.dir_send_msg;
                    self.dir_write(h, block, DirState::Exclusive(p), ts + occ);
                    bytes(self, 0, 1);
                    cell.complete(self.sim(), ts + occ + cfg.latency(h, p));
                } else {
                    let occ = cfg.dir_base
                        + k * cfg.dir_send_msg
                        + if upgrade {
                            cfg.dir_send_msg
                        } else {
                            cfg.dir_send_block
                        };
                    let mut last_ack = 0;
                    for (i, o) in s.iter().filter(|&o| o != p).enumerate() {
                        let inv_at = ts
                            + cfg.dir_base
                            + (i as u64 + 1) * cfg.dir_send_msg
                            + cfg.latency(h, o);
                        self.cache_invalidate(o, block);
                        last_ack = last_ack.max(inv_at + cfg.invalidate + cfg.latency(o, h));
                    }
                    self.dir_write(h, block, DirState::Exclusive(p), ts + occ);
                    // invalidations + acks (ctrl) + response
                    bytes(
                        self,
                        if upgrade { 0 } else { 1 },
                        2 * k + if upgrade { 1 } else { 0 },
                    );
                    let depart = (ts + occ).max(last_ack);
                    cell.complete(self.sim(), depart + cfg.latency(h, p));
                }
            }
        }
    }

    /// Directory service for a non-binding prefetch: identical to a read
    /// request, except nobody stalls — the line is installed in the
    /// requester's cache when the response arrives.
    pub(crate) fn dir_service_prefetch(self: &Rc<Self>, p: usize, block: GAddr, cell: WaitCell) {
        self.dir_service(ProcId::new(p), block, false, cell.clone());
        let resp = cell
            .completion_time()
            .expect("dir_service completes synchronously");
        let this = Rc::clone(self);
        self.sim()
            .call_at(resp.max(self.sim().now()), move || {
                this.install_prefetched(p, block)
            })
            .expect("response time is clamped to the present");
    }

    /// Installs a prefetched block on arrival; a displaced shared victim
    /// still notifies its home (no processor stall is charged — the
    /// replacement happens off the critical path).
    fn install_prefetched(self: &Rc<Self>, p: usize, block: GAddr) {
        self.clear_pending_prefetch(p, block);
        self.install_copy(p, block);
    }

    /// Installs a clean copy of `block` at `p`, fixing up the directory
    /// for any displaced shared victim (used by prefetch arrivals and
    /// push-broadcast updates).
    pub(crate) fn install_copy(self: &Rc<Self>, p: usize, block: GAddr) {
        if let Some(victim) = self.cache_fill_clean(p, block) {
            let victim = GAddr::from_raw(victim);
            if victim.segment() == wwt_mem::Segment::Shared {
                self.dir_drop_copy(victim.node(), victim, p);
            }
        }
    }

    /// Handles the replacement of a *shared* block evicted from processor
    /// `p`'s cache: a dirty victim is written back (data message), a clean
    /// victim sends a replacement hint so the full map stays exact.
    pub(crate) fn shared_eviction(self: &Rc<Self>, cpu: &Cpu, victim: GAddr, state: LineState) {
        let cfg = self.config();
        let p = cpu.id().index();
        let h = victim.node();
        match state {
            LineState::Dirty => {
                cpu.count(Counter::BytesData, cfg.data_msg_bytes);
                cpu.count(Counter::BytesControl, cfg.ctrl_msg_bytes);
            }
            LineState::Clean => {
                cpu.count(Counter::BytesControl, cfg.ctrl_msg_bytes);
            }
        }
        let arrive = cpu.clock() + cfg.latency(p, h);
        let this = Rc::clone(self);
        self.sim()
            .call_at(arrive.max(self.sim().now()), move || {
                this.dir_drop_copy(h, victim, p)
            })
            .expect("arrival is clamped to the present");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sharers_set_semantics() {
        let mut s = Sharers::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(5);
        s.insert(127);
        assert!(s.contains(5) && !s.contains(6));
        assert_eq!(s.count(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 127]);
        s.remove(5);
        assert_eq!(s.count(), 2);
        s.remove(5); // idempotent
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn sharers_iterate_set_bits_in_ascending_order() {
        let mut bits = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834u128;
        for _ in 0..64 {
            let s = Sharers(bits);
            let probed: Vec<usize> = (0..128).filter(|&p| s.contains(p)).collect();
            assert_eq!(s.iter().collect::<Vec<_>>(), probed);
            bits = bits.rotate_left(7) ^ (bits >> 3);
        }
        assert_eq!(Sharers::empty().iter().next(), None);
        assert_eq!(Sharers(u128::MAX).iter().count(), 128);
    }

    #[test]
    #[should_panic(expected = "up to 128 nodes")]
    fn sharers_reject_large_ids() {
        Sharers::empty().insert(128);
    }

    #[test]
    fn dir_state_default_is_uncached() {
        assert_eq!(DirState::default(), DirState::Uncached);
    }

    fn block(i: usize) -> GAddr {
        GAddr::new(wwt_mem::Segment::Shared, 0, (i * 32) as u64)
    }

    /// Whether `st` lists `p`: the match `Directory::lists` replaces.
    fn model_lists(st: DirState, p: usize) -> bool {
        match st {
            DirState::Uncached => false,
            DirState::Shared(s) => s.contains(p),
            DirState::Exclusive(o) => o == p,
        }
    }

    /// `st` after `p`'s copy is dropped: the match `Directory::drop_copy`
    /// replaces.
    fn model_drop(st: DirState, p: usize) -> DirState {
        match st {
            DirState::Exclusive(o) if o == p => DirState::Uncached,
            DirState::Shared(mut s) => {
                s.remove(p);
                if s.is_empty() {
                    DirState::Uncached
                } else {
                    DirState::Shared(s)
                }
            }
            other => other,
        }
    }

    fn random_state(rng: &mut SmallRng, n: usize) -> DirState {
        match rng.gen_range(0..4u32) {
            0 => DirState::Uncached,
            1 => DirState::Exclusive(rng.gen_range(0..n)),
            2 => DirState::Shared(Sharers::one(rng.gen_range(0..n))),
            _ => {
                let mut s = Sharers::one(rng.gen_range(0..n));
                for _ in 0..rng.gen_range(0..2 * n) {
                    s.insert(rng.gen_range(0..n));
                }
                DirState::Shared(s)
            }
        }
    }

    /// Checks `get` and `lists` of block `i` and its neighbours against
    /// the model.
    fn check_around(dir: &Directory, model: &[DirState], i: usize, n: usize) {
        for j in [i.saturating_sub(1), i, i + 1] {
            let want = model.get(j).copied().unwrap_or_default();
            assert_eq!(dir.get(block(j)), want, "block {j} on {n} nodes");
            for p in 0..n {
                assert_eq!(
                    dir.lists(block(j), p),
                    model_lists(want, p),
                    "block {j}, node {p} on {n} nodes ({want:?})"
                );
            }
        }
    }

    /// The packed directory against the `Vec<DirState>` it replaced, on
    /// seeded set/drop_copy streams at every sharer-word boundary.
    #[test]
    fn directory_matches_a_vec_of_dir_states() {
        const BLOCKS: usize = 150;
        for n in [1, 31, 32, 33, 64, 65, 127, 128] {
            let mut rng = SmallRng::seed_from_u64(0xd15 + n as u64);
            let mut dir = Directory::new(32, n);
            let mut model = vec![DirState::Uncached; BLOCKS];
            assert_eq!(dir.get(block(BLOCKS * 4)), DirState::Uncached);
            assert!(!dir.lists(block(BLOCKS * 4), n - 1));
            // An owner on each side of every word boundary, each on a
            // block next to a shared one.
            let owners = [0, 31, 32, 63, 64, 95, 96, 127, n - 1];
            for (k, &o) in owners.iter().filter(|&&o| o < n).enumerate() {
                let (i, st) = (2 * k + 1, DirState::Exclusive(o));
                model[i - 1] = DirState::Shared(Sharers::one(o));
                dir.set(block(i - 1), model[i - 1]);
                model[i] = st;
                dir.set(block(i), st);
                check_around(&dir, &model, i, n);
            }
            for _ in 0..3_000 {
                let i = rng.gen_range(0..BLOCKS);
                if rng.gen_range(0..3u32) == 0 {
                    let p = rng.gen_range(0..n);
                    model[i] = model_drop(model[i], p);
                    dir.drop_copy(block(i), p);
                } else {
                    model[i] = random_state(&mut rng, n);
                    dir.set(block(i), model[i]);
                }
                check_around(&dir, &model, i, n);
            }
            for (i, &want) in model.iter().enumerate() {
                assert_eq!(dir.get(block(i)), want, "block {i} on {n} nodes");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty sharer set")]
    fn directory_rejects_an_empty_shared_set() {
        Directory::new(32, 32).set(block(0), DirState::Shared(Sharers::empty()));
    }

    #[test]
    #[should_panic(expected = "sharer words")]
    fn directory_rejects_a_node_beyond_its_words() {
        Directory::new(32, 32).set(block(0), DirState::Exclusive(32));
    }
}
