//! EM3D: electromagnetic wave propagation on a bipartite graph
//! (Section 5.3).
//!
//! The problem is a computation over a bipartite graph with directed
//! edges from E nodes (electric field) to H nodes (magnetic field) and
//! vice versa. Each step first computes new E values from the weighted sum
//! of in-neighbor H values, then new H values from the weighted sum of
//! in-neighbor E values. The graph is static; a user-specified percentage
//! of edges cross processor boundaries.
//!
//! * EM3D-MP shadows every remote source with a *ghost node* (one per
//!   remote edge, as the paper's variant of the Split-C code does) and
//!   updates all ghosts with one bulk channel message per neighboring
//!   processor per half-step — sender-initiated, bulk, and handshake-free.
//! * EM3D-SM reads remote values in place; the invalidation-based
//!   protocol turns every producer-consumer update into the 4-message
//!   pattern the paper dissects, and round-robin `gmalloc` makes even
//!   private streaming traffic remote (Tables 14–17 variants).

pub mod mp;
pub mod sm;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::Validation;

/// Workload and cost parameters for EM3D.
#[derive(Clone, Debug, PartialEq)]
pub struct Em3dParams {
    /// E nodes per processor (the paper runs 1000).
    pub e_per_proc: usize,
    /// H nodes per processor (the paper runs 1000).
    pub h_per_proc: usize,
    /// Out-degree of every node (the paper runs 10).
    pub degree: usize,
    /// Fraction of edges with a remote sink, in percent (the paper: 20).
    pub remote_pct: u32,
    /// Maximum processor distance of a remote edge (1 = nearest
    /// neighbors). The paper's per-processor message counts (Table 13:
    /// 200 channel writes over 50 iterations) imply each processor talks
    /// to its two neighbors only.
    pub span: usize,
    /// Iterations of the main loop (the paper runs 50).
    pub iters: usize,
    /// Number of processors (the paper runs 32).
    pub procs: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Cycles per edge in the update kernel (multiply-accumulate plus
    /// index arithmetic).
    pub edge_cost: u64,
    /// Cycles of per-node loop overhead in the update kernel.
    pub node_cost: u64,
    /// Consumer-side cache hint for the shared-memory version.
    pub hint: Em3dHint,
}

impl Default for Em3dParams {
    fn default() -> Self {
        Em3dParams {
            e_per_proc: 1000,
            h_per_proc: 1000,
            degree: 10,
            remote_pct: 20,
            span: 1,
            iters: 50,
            procs: 32,
            seed: 0xe3d_0001,
            edge_cost: 45,
            node_cost: 40,
            hint: Em3dHint::None,
        }
    }
}

impl Em3dParams {
    /// A scaled-down workload for unit tests.
    pub fn small() -> Self {
        Em3dParams {
            e_per_proc: 40,
            h_per_proc: 40,
            degree: 4,
            remote_pct: 25,
            iters: 4,
            procs: 4,
            ..Self::default()
        }
    }
}

/// Consumer-side cache hint used by the shared-memory version (the
/// Section 5.3.4 remedies).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Em3dHint {
    /// Plain invalidation-protocol sharing (the paper's measured runs).
    #[default]
    None,
    /// Consumers flush remote values after each half-step, turning the
    /// producers' 2-message invalidations into local replacements.
    Flush,
    /// Consumers issue non-binding prefetches for the remote values at
    /// the start of each half-step (cooperative prefetch).
    Prefetch,
}

/// Which side of the bipartite graph a node is on.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// Electric-field node.
    E,
    /// Magnetic-field node.
    H,
}

impl Side {
    /// The opposite side (edges always cross sides).
    pub fn other(self) -> Side {
        match self {
            Side::E => Side::H,
            Side::H => Side::E,
        }
    }
}

/// One directed edge of the generated graph: what the generator draws
/// for it. Its source follows from its id (see [`Em3dGraph::source`]);
/// its sink is on the other side of the graph.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Edge {
    /// Sink processor.
    pub dst_proc: u32,
    /// Sink node index within the other side on the sink processor.
    pub dst_idx: u32,
    /// Edge weight.
    pub weight: f64,
}

/// A node of the graph: its side, processor and index within that side
/// on that processor.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// Which side the node is on.
    pub side: Side,
    /// Owning processor.
    pub proc: usize,
    /// Index within its side on its processor.
    pub idx: usize,
}

/// The full generated workload graph, identical for both program versions.
///
/// Edges are generated source by source: processor by processor, E nodes
/// then H nodes within a processor, `degree` edges per node. Edge `id`'s
/// source is therefore global node `id / degree` in that numbering, and
/// only the sink and weight are stored.
#[derive(Clone, Debug)]
pub struct Em3dGraph {
    /// All edges, in generation order.
    pub edges: Vec<Edge>,
    /// Initial E values, indexed `[proc][idx]`.
    pub e0: Vec<Vec<f64>>,
    /// Initial H values, indexed `[proc][idx]`.
    pub h0: Vec<Vec<f64>>,
    e_per_proc: usize,
    h_per_proc: usize,
    degree: usize,
}

impl Em3dGraph {
    /// Number of edges each processor's nodes send out.
    fn edges_per_proc(&self) -> usize {
        (self.e_per_proc + self.h_per_proc) * self.degree
    }

    /// Global number of edge `id`'s source node: nodes are numbered
    /// processor by processor, E nodes then H nodes.
    fn source_node(&self, id: usize) -> usize {
        id / self.degree
    }

    /// The source node of edge `id`.
    pub fn source(&self, id: usize) -> Node {
        let per_proc = self.e_per_proc + self.h_per_proc;
        let n = self.source_node(id);
        let (proc, r) = (n / per_proc, n % per_proc);
        if r < self.e_per_proc {
            Node {
                side: Side::E,
                proc,
                idx: r,
            }
        } else {
            Node {
                side: Side::H,
                proc,
                idx: r - self.e_per_proc,
            }
        }
    }
}

/// Generates the deterministic workload graph for `p`.
pub fn gen_graph(p: &Em3dParams) -> Em3dGraph {
    let mut rng = SmallRng::seed_from_u64(p.seed);
    let mut edges = Vec::with_capacity(p.procs * (p.e_per_proc + p.h_per_proc) * p.degree);
    for src_proc in 0..p.procs {
        // E sources (sinks on the H side), then H sources.
        for (count, other_count) in [(p.e_per_proc, p.h_per_proc), (p.h_per_proc, p.e_per_proc)] {
            for _ in 0..count * p.degree {
                let remote = p.procs > 1 && rng.gen_range(0..100) < p.remote_pct;
                let dst_proc = if remote {
                    let span = p.span.clamp(1, p.procs - 1);
                    let mut d = rng.gen_range(0..2 * span) as i64 - span as i64;
                    if d >= 0 {
                        d += 1;
                    }
                    (src_proc as i64 + d).rem_euclid(p.procs as i64) as usize
                } else {
                    src_proc
                };
                let dst_idx = rng.gen_range(0..other_count);
                edges.push(Edge {
                    dst_proc: dst_proc as u32,
                    dst_idx: dst_idx as u32,
                    weight: rng.gen_range(0.01..0.99) / (p.degree as f64),
                });
            }
        }
    }
    let mut vals = |count: usize| -> Vec<Vec<f64>> {
        (0..p.procs)
            .map(|_| (0..count).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    };
    let e0 = vals(p.e_per_proc);
    let h0 = vals(p.h_per_proc);
    Em3dGraph {
        edges,
        e0,
        h0,
        e_per_proc: p.e_per_proc,
        h_per_proc: p.h_per_proc,
        degree: p.degree,
    }
}

/// The in-edges of one sink side, grouped by sink node.
#[derive(Clone, Debug)]
pub struct SinkRuns {
    /// Sink nodes per processor on this side.
    nodes: usize,
    /// `starts[q * nodes + i]..starts[q * nodes + i + 1]` is the run of
    /// sink `i` on processor `q` in `ids`; `procs * nodes + 1` entries.
    starts: Vec<u32>,
    /// Edge ids sorted by sink (processor, then index), in edge order
    /// within a sink.
    ids: Vec<u32>,
}

impl SinkRuns {
    /// The `nodes + 1` run starts of processor `proc`'s sinks, as
    /// positions in `ids`.
    pub fn proc_starts(&self, proc: usize) -> &[u32] {
        &self.starts[proc * self.nodes..=(proc + 1) * self.nodes]
    }

    /// The in-edge ids of processor `proc`'s sinks, node-major.
    pub fn proc_ids(&self, proc: usize) -> &[u32] {
        let s = self.proc_starts(proc);
        &self.ids[s[0] as usize..s[self.nodes] as usize]
    }

    /// The in-edge ids of sink `idx` on processor `proc`, in edge order.
    pub fn node_ids(&self, proc: usize, idx: usize) -> &[u32] {
        let k = proc * self.nodes + idx;
        &self.ids[self.starts[k] as usize..self.starts[k + 1] as usize]
    }
}

/// The graph's edges grouped by sink, built once per run by a stable
/// counting sort of the edge ids and shared by both program versions
/// and the reference.
#[derive(Clone, Debug)]
pub struct EdgeIndex {
    /// In-edges of E sinks (their sources are H nodes).
    e: SinkRuns,
    /// In-edges of H sinks (their sources are E nodes).
    h: SinkRuns,
    /// Each edge's position in its sink side's `ids`.
    pos: Vec<u32>,
}

impl EdgeIndex {
    /// Builds the index of `g`.
    pub fn new(g: &Em3dGraph) -> Self {
        assert!(
            u32::try_from(g.edges.len()).is_ok(),
            "edge ids must fit in u32"
        );
        let procs = g.e0.len();
        let mut e = SinkRuns {
            nodes: g.e_per_proc,
            starts: vec![0; procs * g.e_per_proc + 1],
            ids: Vec::new(),
        };
        let mut h = SinkRuns {
            nodes: g.h_per_proc,
            starts: vec![0; procs * g.h_per_proc + 1],
            ids: Vec::new(),
        };
        // Each edge's sink side and sink key (processor-major).
        let sink = |id: usize| -> (Side, usize) {
            let edge = g.edges[id];
            let side = g.source(id).side.other();
            let nodes = match side {
                Side::E => g.e_per_proc,
                Side::H => g.h_per_proc,
            };
            (side, edge.dst_proc as usize * nodes + edge.dst_idx as usize)
        };
        // Count each sink's in-edges, turn the counts into run ends, then
        // place the ids back to front so each run keeps edge order and
        // each `starts` entry ends at its run's start.
        for id in 0..g.edges.len() {
            let (side, k) = sink(id);
            match side {
                Side::E => e.starts[k] += 1,
                Side::H => h.starts[k] += 1,
            }
        }
        for runs in [&mut e, &mut h] {
            for k in 1..runs.starts.len() {
                runs.starts[k] += runs.starts[k - 1];
            }
            runs.ids = vec![0; *runs.starts.last().expect("starts is never empty") as usize];
        }
        let mut pos = vec![0; g.edges.len()];
        for id in (0..g.edges.len()).rev() {
            let (side, k) = sink(id);
            let runs = match side {
                Side::E => &mut e,
                Side::H => &mut h,
            };
            runs.starts[k] -= 1;
            let at = runs.starts[k];
            runs.ids[at as usize] = id as u32;
            pos[id] = at;
        }
        EdgeIndex { e, h, pos }
    }

    /// The in-edges of the sinks on `side`.
    pub fn sinks(&self, side: Side) -> &SinkRuns {
        match side {
            Side::E => &self.e,
            Side::H => &self.h,
        }
    }

    /// Edge `id`'s slot in its sink processor's node-major in-edge run
    /// on the sink side `side`.
    pub fn slot(&self, id: usize, side: Side, dst_proc: usize) -> usize {
        (self.pos[id] - self.sinks(side).proc_starts(dst_proc)[0]) as usize
    }
}

/// Host-side sequential reference: runs the same computation and returns
/// the final (E, H) values for every processor's nodes.
pub fn reference(
    p: &Em3dParams,
    g: &Em3dGraph,
    index: &EdgeIndex,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    // Values by global node number, so an edge's source value is
    // `vals[g.source_node(id)]`. Each half-step reads only the other
    // side, so updating in place gives the same bits as double buffering.
    let per_proc = p.e_per_proc + p.h_per_proc;
    let mut vals: Vec<f64> =
        g.e0.iter()
            .zip(&g.h0)
            .flat_map(|(e, h)| e.iter().chain(h))
            .copied()
            .collect();
    let half_step = |vals: &mut [f64], side: Side| {
        let (runs, first) = match side {
            Side::E => (&index.e, 0),
            Side::H => (&index.h, p.e_per_proc),
        };
        for proc in 0..p.procs {
            for i in 0..runs.nodes {
                let mut acc = 0.0;
                for &id in runs.node_ids(proc, i) {
                    acc += g.edges[id as usize].weight * vals[g.source_node(id as usize)];
                }
                vals[proc * per_proc + first + i] -= acc;
            }
        }
    };
    for _ in 0..p.iters {
        half_step(&mut vals, Side::E);
        half_step(&mut vals, Side::H);
    }
    let split = |first: usize, count: usize| -> Vec<Vec<f64>> {
        (0..p.procs)
            .map(|q| vals[q * per_proc + first..][..count].to_vec())
            .collect()
    };
    (split(0, p.e_per_proc), split(p.e_per_proc, p.h_per_proc))
}

/// Compares simulated final values against the reference.
pub(crate) fn validate_values(
    reference: &(Vec<Vec<f64>>, Vec<Vec<f64>>),
    got_e: &[Vec<f64>],
    got_h: &[Vec<f64>],
) -> Validation {
    let mut err = 0.0f64;
    for (a, b) in reference.0.iter().zip(got_e) {
        for (x, y) in a.iter().zip(b) {
            err = err.max((x - y).abs());
        }
    }
    for (a, b) in reference.1.iter().zip(got_h) {
        for (x, y) in a.iter().zip(b) {
            err = err.max((x - y).abs());
        }
    }
    Validation::from_error("max |value - reference|", err, 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_generation_is_deterministic() {
        let p = Em3dParams::small();
        let a = gen_graph(&p);
        let b = gen_graph(&p);
        assert_eq!(a.edges, b.edges);
        assert_eq!((a.e0, a.h0), (b.e0, b.h0));
    }

    #[test]
    fn edges_respect_requested_remote_fraction() {
        let p = Em3dParams {
            e_per_proc: 400,
            h_per_proc: 400,
            ..Em3dParams::small()
        };
        let g = gen_graph(&p);
        let remote = (0..g.edges.len())
            .filter(|&id| g.source(id).proc != g.edges[id].dst_proc as usize)
            .count();
        let frac = remote as f64 / g.edges.len() as f64;
        assert!((frac - 0.25).abs() < 0.03, "remote fraction {frac}");
    }

    #[test]
    fn edge_count_matches_degree() {
        let p = Em3dParams::small();
        let g = gen_graph(&p);
        assert_eq!(
            g.edges.len(),
            p.procs * (p.e_per_proc + p.h_per_proc) * p.degree
        );
    }

    #[test]
    fn reference_values_stay_finite_and_move() {
        let p = Em3dParams::small();
        let g = gen_graph(&p);
        let (e, h) = reference(&p, &g, &EdgeIndex::new(&g));
        for v in e.iter().chain(&h).flatten() {
            assert!(v.is_finite());
        }
        assert_ne!(e, g.e0, "values must change over iterations");
    }

    /// Per-sink in-edge lists `[proc][sink idx]` of `(src_proc, src_idx,
    /// weight)`, in edge order.
    type Lists = Vec<Vec<Vec<(usize, usize, f64)>>>;

    /// The push-built lists the index replaced: walks the edges in
    /// generation order (source processor, side, index, degree) and
    /// appends each to its sink's list. Returns `(E sinks, H sinks)`.
    fn push_built_lists(p: &Em3dParams, g: &Em3dGraph) -> (Lists, Lists) {
        let mut in_e: Lists = vec![vec![Vec::new(); p.e_per_proc]; p.procs];
        let mut in_h: Lists = vec![vec![Vec::new(); p.h_per_proc]; p.procs];
        let mut edges = g.edges.iter();
        for src_proc in 0..p.procs {
            for (side, count) in [(Side::E, p.e_per_proc), (Side::H, p.h_per_proc)] {
                for src_idx in 0..count {
                    for _ in 0..p.degree {
                        let edge = edges.next().expect("one edge per draw");
                        let lists = match side {
                            Side::E => &mut in_h,
                            Side::H => &mut in_e,
                        };
                        lists[edge.dst_proc as usize][edge.dst_idx as usize].push((
                            src_proc,
                            src_idx,
                            edge.weight,
                        ));
                    }
                }
            }
        }
        assert!(edges.next().is_none());
        (in_e, in_h)
    }

    /// The double-buffered reference over push-built lists that
    /// [`reference`] replaced.
    fn double_buffered_reference(p: &Em3dParams, g: &Em3dGraph) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let (in_e, in_h) = push_built_lists(p, g);
        let step = |sinks: &[Vec<f64>], srcs: &[Vec<f64>], ins: &Lists| {
            let mut next = sinks.to_vec();
            for (proc, nodes) in ins.iter().enumerate() {
                for (i, list) in nodes.iter().enumerate() {
                    let mut acc = 0.0;
                    for &(sp, si, w) in list {
                        acc += w * srcs[sp][si];
                    }
                    next[proc][i] = sinks[proc][i] - acc;
                }
            }
            next
        };
        let (mut e, mut h) = (g.e0.clone(), g.h0.clone());
        for _ in 0..p.iters {
            e = step(&e, &h, &in_e);
            h = step(&h, &e, &in_h);
        }
        (e, h)
    }

    /// `small()`, an asymmetric shape with a two-processor span, and a
    /// single processor.
    fn oracle_shapes() -> [Em3dParams; 3] {
        [
            Em3dParams::small(),
            Em3dParams {
                e_per_proc: 30,
                h_per_proc: 17,
                degree: 3,
                span: 2,
                remote_pct: 40,
                procs: 5,
                ..Em3dParams::small()
            },
            Em3dParams {
                procs: 1,
                ..Em3dParams::small()
            },
        ]
    }

    #[test]
    fn index_reproduces_the_push_built_lists() {
        for p in oracle_shapes() {
            let g = gen_graph(&p);
            let index = EdgeIndex::new(&g);
            let (in_e, in_h) = push_built_lists(&p, &g);
            for (side, lists) in [(Side::E, &in_e), (Side::H, &in_h)] {
                let runs = index.sinks(side);
                assert_eq!(runs.starts.len(), p.procs * lists[0].len() + 1);
                for (proc, nodes) in lists.iter().enumerate() {
                    for (i, list) in nodes.iter().enumerate() {
                        let from_index: Vec<(usize, usize, f64)> = runs
                            .node_ids(proc, i)
                            .iter()
                            .map(|&id| {
                                let src = g.source(id as usize);
                                assert_eq!(src.side, side.other());
                                (src.proc, src.idx, g.edges[id as usize].weight)
                            })
                            .collect();
                        assert_eq!(&from_index, list, "{side:?} sink {proc}/{i} of {p:?}");
                    }
                    let deg: usize = nodes.iter().map(Vec::len).sum();
                    assert_eq!(runs.proc_ids(proc).len(), deg);
                }
            }
            for id in 0..g.edges.len() {
                let side = g.source(id).side.other();
                assert_eq!(index.sinks(side).ids[index.pos[id] as usize] as usize, id);
            }
        }
    }

    #[test]
    fn in_place_reference_matches_double_buffering_bitwise() {
        for p in oracle_shapes() {
            let g = gen_graph(&p);
            let bits = |(e, h): (Vec<Vec<f64>>, Vec<Vec<f64>>)| -> Vec<u64> {
                e.iter().chain(&h).flatten().map(|v| v.to_bits()).collect()
            };
            assert_eq!(
                bits(reference(&p, &g, &EdgeIndex::new(&g))),
                bits(double_buffered_reference(&p, &g)),
                "{p:?}"
            );
        }
    }

    #[test]
    fn both_programs_match_the_reference_on_every_oracle_shape() {
        for p in oracle_shapes() {
            let sm = sm::run(&p, wwt_sm::SmConfig::default());
            let mp = mp::run(&p, wwt_mp::MpConfig::default());
            for r in [&sm, &mp] {
                assert!(
                    r.validation.detail.contains("0.000e0"),
                    "{p:?}: {}",
                    r.validation.detail
                );
            }
            assert_eq!(sm.artifact, mp.artifact);
        }
    }

    #[test]
    fn side_other_flips() {
        assert_eq!(Side::E.other(), Side::H);
        assert_eq!(Side::H.other(), Side::E);
    }
}
