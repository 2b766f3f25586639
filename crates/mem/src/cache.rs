//! Set-associative cache tag model with random replacement.
//!
//! The cache tracks tags and line states only; data values live in the
//! node's backing store ([`crate::NodeMem`]). This matches the Wisconsin
//! Wind Tunnel approach, where the simulator models timing and coherence
//! while data is held in host memory.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

use crate::addr::BLOCK_BYTES;

/// State of one cache line.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LineState {
    /// Present, not modified. For shared data this is a *read-only* copy
    /// (writing to it raises a write fault on the shared-memory machine).
    Clean,
    /// Present and modified (exclusive ownership for shared data).
    Dirty,
}

/// Geometry of a cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Block (line) size in bytes.
    pub block_bytes: u64,
}

impl CacheGeometry {
    /// The paper's cache: 256 KB, 4-way set associative, 32-byte blocks
    /// (Table 1).
    pub fn paper_default() -> Self {
        CacheGeometry {
            size_bytes: 256 * 1024,
            ways: 4,
            block_bytes: BLOCK_BYTES,
        }
    }

    /// The 1 MB variant used for the EM3D study (Table 16).
    pub fn one_megabyte() -> Self {
        CacheGeometry {
            size_bytes: 1024 * 1024,
            ..Self::paper_default()
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, a block size or
    /// set count that is not a power of two, or capacity not divisible by
    /// `ways * block_bytes`).
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0, "cache must have at least one way");
        assert!(
            self.block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        let per_way = self.size_bytes / (self.ways as u64);
        assert!(
            per_way.is_multiple_of(self.block_bytes),
            "capacity not divisible by ways * block"
        );
        let sets = per_way / self.block_bytes;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets as usize
    }
}

/// One cache line packed into a `u64`: the raw block address it holds
/// (`GAddr::raw` of the block) plus a valid flag in bit 63 and a dirty
/// flag in bit 62, bits no global address uses. Eight bytes per line put
/// a 4-way set in 32 host bytes, so the tag arrays of a whole machine
/// fit the host's caches better.
type Line = u64;

const VALID: Line = 1 << 63;
const DIRTY: Line = 1 << 62;

/// An invalid line.
const EMPTY: Line = 0;

/// A valid line holding `block` in `state`.
#[inline]
fn line(block: u64, state: LineState) -> Line {
    block
        | VALID
        | match state {
            LineState::Clean => 0,
            LineState::Dirty => DIRTY,
        }
}

/// Whether `l` is a valid line holding `block`. `^` rather than `|`, so an
/// address that sets a flag bit matches no valid line and a miss takes it
/// to the check in `Cache::replace`. One such address, `1 << 63`, equals
/// an empty way instead; `Cache::set_index` refuses it in debug builds.
#[inline]
fn holds(l: Line, block: u64) -> bool {
    l & !DIRTY == block ^ VALID
}

/// The panic of `Cache::replace` on a block address that overlaps the flag
/// bits, kept out of line so the access path stays small.
#[cold]
#[inline(never)]
fn too_wide(block: u64) -> ! {
    panic!("block address {block:#x} too wide")
}

#[inline]
fn is_valid(l: Line) -> bool {
    l & VALID != 0
}

#[inline]
fn tag(l: Line) -> u64 {
    l & !(VALID | DIRTY)
}

#[inline]
fn line_state(l: Line) -> LineState {
    if l & DIRTY != 0 {
        LineState::Dirty
    } else {
        LineState::Clean
    }
}

/// How an access intends to use the block.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// A block evicted to make room for a fill.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Raw block address of the victim.
    pub block: u64,
    /// Victim state at eviction (a `Dirty` victim must be written back).
    pub state: LineState,
}

/// Result of a cache access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the block was present with sufficient permission.
    ///
    /// A write to a `Clean` line is reported as a hit with
    /// `upgrade = true`: the data was present but the line needs write
    /// permission (a write fault on the shared-memory machine).
    pub hit: bool,
    /// True when a write found the block `Clean` (write-permission
    /// upgrade needed for shared data).
    pub upgrade: bool,
    /// The victim evicted by the fill, if the access missed and replaced a
    /// valid line.
    pub evicted: Option<Evicted>,
}

/// A set-associative cache with random replacement.
///
/// Accesses both probe and update the cache: a miss fills the block
/// (choosing an invalid way if one exists, otherwise a uniformly random
/// victim) and reports the evicted line so the caller can charge
/// replacement costs.
///
/// Every method that takes a block address expects it block-aligned and
/// with bits 62 and 63 clear (no global address uses them). Debug builds
/// check both on every call.
pub struct Cache {
    geometry: CacheGeometry,
    /// All lines, flat: set `s` occupies `lines[s * ways .. (s + 1) * ways]`.
    /// One contiguous allocation keeps a set probe inside a cache line or
    /// two instead of chasing a per-set heap pointer.
    lines: Vec<Line>,
    set_mask: u64,
    block_shift: u32,
    rng: SmallRng,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("geometry", &self.geometry)
            .field("resident", &self.resident_blocks())
            .finish()
    }
}

impl Cache {
    /// Creates an empty cache with the given geometry and replacement seed.
    pub fn new(geometry: CacheGeometry, seed: u64) -> Self {
        let nsets = geometry.sets();
        Cache {
            geometry,
            lines: vec![EMPTY; nsets * geometry.ways],
            set_mask: (nsets as u64) - 1,
            block_shift: geometry.block_bytes.trailing_zeros(),
            rng: SmallRng::seed_from_u64(seed ^ 0xcac4e),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_index(&self, block: u64) -> usize {
        debug_assert!(
            block & (VALID | DIRTY) == 0,
            "block address {block:#x} too wide"
        );
        ((block >> self.block_shift) & self.set_mask) as usize
    }

    /// The ways of the set `block` maps to, as a mutable slice.
    fn set_mut(&mut self, block: u64) -> &mut [Line] {
        let ways = self.geometry.ways;
        let start = self.set_index(block) * ways;
        &mut self.lines[start..start + ways]
    }

    /// The ways of the set `block` maps to.
    fn set_of(&self, block: u64) -> &[Line] {
        let ways = self.geometry.ways;
        let start = self.set_index(block) * ways;
        &self.lines[start..start + ways]
    }

    /// Accesses the block containing raw block address `block`
    /// (must be block-aligned), filling it on a miss.
    ///
    /// The state after the access is `Dirty` for writes and the previous
    /// state (or `Clean` on a fill) for reads.
    ///
    /// # Panics
    ///
    /// Panics if `block` sets bit 62 or 63, which no global address uses.
    /// Release builds check only when the block is installed, which
    /// misses `1 << 63`: it reads as an empty way.
    pub fn access(&mut self, block: u64, kind: AccessKind) -> AccessResult {
        debug_assert!(
            block & (self.geometry.block_bytes - 1) == 0,
            "unaligned block address"
        );
        let ways = self.geometry.ways;
        let start = self.set_index(block) * ways;
        let set = &mut self.lines[start..start + ways];

        for l in set.iter_mut() {
            if holds(*l, block) {
                let upgrade = kind == AccessKind::Write && *l & DIRTY == 0;
                if kind == AccessKind::Write {
                    *l |= DIRTY;
                }
                return AccessResult {
                    hit: true,
                    upgrade,
                    evicted: None,
                };
            }
        }

        let state = match kind {
            AccessKind::Write => LineState::Dirty,
            AccessKind::Read => LineState::Clean,
        };
        AccessResult {
            hit: false,
            upgrade: false,
            evicted: self.replace(start, block, state),
        }
    }

    /// Installs `block` in `state` in the set starting at `start`, in an
    /// invalid way if one exists, else in a uniformly random one, and
    /// returns the victim.
    ///
    /// Every block enters the cache here, so this is where a release
    /// build refuses an address that overlaps the flag bits: all but
    /// `1 << 63` match no line (see `holds`), so an access or fill of
    /// them gets here.
    fn replace(&mut self, start: usize, block: u64, state: LineState) -> Option<Evicted> {
        if block & (VALID | DIRTY) != 0 {
            too_wide(block);
        }
        let new = line(block, state);
        let ways = self.geometry.ways;
        let set = &mut self.lines[start..start + ways];
        let victim_idx = match set.iter().position(|&l| !is_valid(l)) {
            Some(i) => i,
            None => self.rng.gen_range(0..ways),
        };
        let victim = std::mem::replace(&mut set[victim_idx], new);
        is_valid(victim).then(|| Evicted {
            block: tag(victim),
            state: line_state(victim),
        })
    }

    /// Fills `block` with an explicit state without counting as an access
    /// (used when a coherence response installs a line). Returns the
    /// evicted victim, if any.
    ///
    /// # Panics
    ///
    /// Panics if `block` sets bit 62 or 63, which no global address uses.
    /// Release builds check only when the block is installed, which
    /// misses `1 << 63`: it reads as an empty way.
    pub fn fill(&mut self, block: u64, state: LineState) -> Option<Evicted> {
        let ways = self.geometry.ways;
        let start = self.set_index(block) * ways;
        if let Some(l) = self.lines[start..start + ways]
            .iter_mut()
            .find(|l| holds(**l, block))
        {
            *l = line(block, state);
            return None;
        }
        self.replace(start, block, state)
    }

    /// Returns the state of `block` if it is resident.
    pub fn state_of(&self, block: u64) -> Option<LineState> {
        let set = self.set_of(block);
        set.iter()
            .find(|&&l| holds(l, block))
            .map(|&l| line_state(l))
    }

    /// Invalidates `block`, returning its state if it was resident.
    pub fn invalidate(&mut self, block: u64) -> Option<LineState> {
        let set = self.set_mut(block);
        let l = set.iter_mut().find(|l| holds(**l, block))?;
        Some(line_state(std::mem::replace(l, EMPTY)))
    }

    /// Downgrades `block` to `Clean` (read-only), returning `true` if it
    /// was resident and `Dirty` (i.e. a writeback is needed).
    pub fn downgrade(&mut self, block: u64) -> bool {
        let set = self.set_mut(block);
        match set.iter_mut().find(|l| holds(**l, block)) {
            Some(l) => {
                let was_dirty = *l & DIRTY != 0;
                *l &= !DIRTY;
                was_dirty
            }
            None => false,
        }
    }

    /// All valid resident lines as (raw block address, state) pairs.
    pub fn resident(&self) -> Vec<(u64, LineState)> {
        self.lines
            .iter()
            .filter(|&&l| is_valid(l))
            .map(|&l| (tag(l), line_state(l)))
            .collect()
    }

    /// Number of valid lines currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.lines.iter().filter(|&&l| is_valid(l)).count()
    }

    /// Invalidates everything (used between experiment phases).
    pub fn clear(&mut self) {
        self.lines.fill(EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 32B = 256B.
        Cache::new(
            CacheGeometry {
                size_bytes: 256,
                ways: 2,
                block_bytes: 32,
            },
            7,
        )
    }

    #[test]
    fn paper_geometry_has_2048_sets() {
        assert_eq!(CacheGeometry::paper_default().sets(), 2048);
        assert_eq!(CacheGeometry::one_megabyte().sets(), 8192);
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = small_cache();
        assert!(!c.access(0x0, AccessKind::Read).hit);
        assert!(c.access(0x0, AccessKind::Read).hit);
        assert_eq!(c.state_of(0x0), Some(LineState::Clean));
    }

    #[test]
    fn write_marks_dirty_and_reports_upgrade() {
        let mut c = small_cache();
        c.access(0x20, AccessKind::Read);
        let r = c.access(0x20, AccessKind::Write);
        assert!(r.hit && r.upgrade);
        assert_eq!(c.state_of(0x20), Some(LineState::Dirty));
        // Second write: no upgrade.
        let r = c.access(0x20, AccessKind::Write);
        assert!(r.hit && !r.upgrade);
    }

    #[test]
    fn conflicting_blocks_evict() {
        let mut c = small_cache();
        // Three blocks mapping to set 0 in a 2-way cache (stride = 4 sets * 32B).
        c.access(0x000, AccessKind::Write);
        c.access(0x080, AccessKind::Read);
        let r = c.access(0x100, AccessKind::Read);
        assert!(!r.hit);
        let ev = r.evicted.expect("a valid line must be evicted");
        assert!(ev.block == 0x000 || ev.block == 0x080);
        // The dirty victim reports Dirty so the caller charges a writeback.
        if ev.block == 0x000 {
            assert_eq!(ev.state, LineState::Dirty);
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache();
        c.access(0x40, AccessKind::Write);
        assert_eq!(c.invalidate(0x40), Some(LineState::Dirty));
        assert_eq!(c.state_of(0x40), None);
        assert_eq!(c.invalidate(0x40), None);
        assert!(!c.access(0x40, AccessKind::Read).hit);
    }

    #[test]
    fn downgrade_reports_writeback_need() {
        let mut c = small_cache();
        c.access(0x60, AccessKind::Write);
        assert!(c.downgrade(0x60));
        assert_eq!(c.state_of(0x60), Some(LineState::Clean));
        assert!(!c.downgrade(0x60));
    }

    #[test]
    fn fill_does_not_duplicate_resident_block() {
        let mut c = small_cache();
        c.access(0x20, AccessKind::Read);
        assert!(c.fill(0x20, LineState::Dirty).is_none());
        assert_eq!(c.state_of(0x20), Some(LineState::Dirty));
        assert_eq!(c.resident_blocks(), 1);
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = small_cache();
        c.access(0x0, AccessKind::Read);
        c.access(0x20, AccessKind::Read);
        c.clear();
        assert_eq!(c.resident_blocks(), 0);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = small_cache();
        for i in 0..64 {
            c.access(i * 32, AccessKind::Read);
        }
        assert!(c.resident_blocks() <= 8);
    }

    /// The cache as it stored lines before they were packed into a `u64`
    /// (16 bytes each): the reference the packed cache must match.
    struct ModelCache {
        ways: usize,
        lines: Vec<ModelLine>,
        set_mask: u64,
        block_shift: u32,
        rng: SmallRng,
    }

    #[derive(Copy, Clone, Default)]
    struct ModelLine {
        tag: u64,
        state: Option<LineState>,
    }

    impl ModelCache {
        fn new(geometry: CacheGeometry, seed: u64) -> Self {
            let nsets = geometry.sets();
            ModelCache {
                ways: geometry.ways,
                lines: vec![ModelLine::default(); nsets * geometry.ways],
                set_mask: nsets as u64 - 1,
                block_shift: geometry.block_bytes.trailing_zeros(),
                rng: SmallRng::seed_from_u64(seed ^ 0xcac4e),
            }
        }

        fn set(&mut self, block: u64) -> &mut [ModelLine] {
            let start = ((block >> self.block_shift) & self.set_mask) as usize * self.ways;
            &mut self.lines[start..start + self.ways]
        }

        fn find(&mut self, block: u64) -> Option<&mut ModelLine> {
            self.set(block)
                .iter_mut()
                .find(|l| l.state.is_some() && l.tag == block)
        }

        fn install(&mut self, block: u64, state: LineState) -> Option<Evicted> {
            let ways = self.ways;
            let victim_idx = match self.set(block).iter().position(|l| l.state.is_none()) {
                Some(i) => i,
                None => self.rng.gen_range(0..ways),
            };
            let new = ModelLine {
                tag: block,
                state: Some(state),
            };
            let victim = std::mem::replace(&mut self.set(block)[victim_idx], new);
            victim.state.map(|state| Evicted {
                block: victim.tag,
                state,
            })
        }

        fn access(&mut self, block: u64, kind: AccessKind) -> AccessResult {
            if let Some(l) = self.find(block) {
                let upgrade = kind == AccessKind::Write && l.state == Some(LineState::Clean);
                if kind == AccessKind::Write {
                    l.state = Some(LineState::Dirty);
                }
                return AccessResult {
                    hit: true,
                    upgrade,
                    evicted: None,
                };
            }
            let state = match kind {
                AccessKind::Write => LineState::Dirty,
                AccessKind::Read => LineState::Clean,
            };
            AccessResult {
                hit: false,
                upgrade: false,
                evicted: self.install(block, state),
            }
        }

        fn fill(&mut self, block: u64, state: LineState) -> Option<Evicted> {
            if let Some(l) = self.find(block) {
                l.state = Some(state);
                return None;
            }
            self.install(block, state)
        }

        fn state_of(&mut self, block: u64) -> Option<LineState> {
            self.find(block).and_then(|l| l.state)
        }

        fn invalidate(&mut self, block: u64) -> Option<LineState> {
            self.find(block).and_then(|l| l.state.take())
        }

        fn downgrade(&mut self, block: u64) -> bool {
            match self.find(block) {
                Some(l) => l.state.replace(LineState::Clean) == Some(LineState::Dirty),
                None => false,
            }
        }

        fn resident(&self) -> Vec<(u64, LineState)> {
            self.lines
                .iter()
                .filter_map(|l| l.state.map(|s| (l.tag, s)))
                .collect()
        }
    }

    /// The packed cache in lockstep with the 16-byte-line model under one
    /// seed: every operation returns the same result and both draw the
    /// same replacement victims.
    #[test]
    fn packed_lines_match_the_16_byte_line_model() {
        // 4 sets x 4 ways x 32 B, fed 48 distinct blocks so every set
        // overflows; half the blocks carry a shared global address's
        // high bits.
        let geometry = CacheGeometry {
            size_bytes: 512,
            ways: 4,
            block_bytes: 32,
        };
        let mut cache = Cache::new(geometry, 11);
        let mut model = ModelCache::new(geometry, 11);
        let mut rng = SmallRng::seed_from_u64(0x10c5);
        let high = (1u64 << 50) | (31 << 40);
        for step in 0..20_000 {
            let i = rng.gen_range(0..48u64);
            let block = (i % 24) * 32 + if i >= 24 { high } else { 0 };
            let state = if rng.gen_bool(0.5) {
                LineState::Dirty
            } else {
                LineState::Clean
            };
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    let kind = if state == LineState::Dirty {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    assert_eq!(
                        cache.access(block, kind),
                        model.access(block, kind),
                        "{step}"
                    );
                }
                4 | 5 => assert_eq!(cache.fill(block, state), model.fill(block, state), "{step}"),
                6 => assert_eq!(cache.invalidate(block), model.invalidate(block), "{step}"),
                7 => assert_eq!(cache.downgrade(block), model.downgrade(block), "{step}"),
                _ => assert_eq!(cache.state_of(block), model.state_of(block), "{step}"),
            }
            if step % 64 == 0 {
                assert_eq!(cache.resident(), model.resident(), "{step}");
            }
        }
        assert_eq!(cache.resident(), model.resident());
        assert_eq!(cache.resident_blocks(), model.resident().len());
    }

    /// No line holds an address that sets a flag bit, except that
    /// `1 << 63` equals an empty way: the one address that only the debug
    /// check in `set_index` refuses.
    #[test]
    fn blocks_using_the_flag_bits_match_no_line() {
        for block in [0, 0x20, (1 << 50) | 0x20] {
            for flag in [VALID, DIRTY, VALID | DIRTY] {
                for state in [LineState::Clean, LineState::Dirty] {
                    assert!(!holds(line(block, state), block | flag));
                }
                if block | flag != VALID {
                    assert!(!holds(EMPTY, block | flag));
                }
            }
        }
        assert!(holds(EMPTY, VALID));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "too wide")]
    fn debug_builds_refuse_the_address_that_reads_as_an_empty_way() {
        small_cache().access(VALID, AccessKind::Write);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "too wide")]
    fn debug_builds_refuse_flag_bits_in_lookups() {
        let mut c = small_cache();
        c.access(0x20, AccessKind::Write);
        c.state_of(0x20 | DIRTY);
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn filling_a_block_that_sets_a_flag_bit_panics() {
        small_cache().fill(0x20 | DIRTY, LineState::Clean);
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn accessing_a_block_that_sets_a_flag_bit_panics() {
        let mut c = small_cache();
        c.access(0x20, AccessKind::Read);
        c.access(0x20 | VALID, AccessKind::Read);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_blocks_are_rejected() {
        // 196608 B / 4 ways / 48 B = 1024 sets: only the block size is bad.
        CacheGeometry {
            size_bytes: 196_608,
            ways: 4,
            block_bytes: 48,
        }
        .sets();
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut c = small_cache();
            let mut evictions = Vec::new();
            for i in 0..32 {
                if let Some(e) = c.access((i * 7 % 16) * 32, AccessKind::Read).evicted {
                    evictions.push(e.block);
                }
            }
            evictions
        };
        assert_eq!(run(), run());
    }
}
