//! EM3D-SM: in-place sharing under the invalidation protocol.
//!
//! No ghost nodes: caching *is* the replication mechanism, so every
//! producer-consumer update costs the 4-message invalidate/request/reply
//! pattern the paper dissects in Section 5.3.3. Following the paper's
//! tuned version, node *values* live in separate per-processor vectors
//! (better spatial locality than embedding them in node records); the
//! in-edge arrays (weights and pointers) are allocated with `gmalloc`,
//! whose round-robin policy homes them on essentially random nodes — the
//! source of the 97%-remote-miss pathology of Table 15 — or locally under
//! the Table-17 policy. Initialization builds the reverse-edge lists with
//! remote writes protected by locks, exactly the cost structure the paper
//! reports (Table 14's lock row).

use std::rc::Rc;

use wwt_mem::GAddr;
use wwt_sim::{Engine, SimError};
use wwt_sm::{McsLock, SmConfig, SmMachine};

use crate::common::{AppRun, PhaseRecorder};
use crate::em3d::{
    gen_graph, reference, validate_values, EdgeIndex, Em3dGraph, Em3dHint, Em3dParams, Side,
};

/// Number of locks per destination processor protecting its in-edge
/// structures (hashed by sink node index).
const LOCKS_PER_PROC: usize = 16;

/// One of a processor's out-edges as its initialization installs it at
/// the sink, decoded on the fly from the graph and the index.
struct OutEdge {
    dst_proc: usize,
    /// Sink side (the other side from the source).
    side: Side,
    /// Sink node index.
    dst_idx: usize,
    /// Flat slot in the sink processor's node-major in-edge arrays.
    slot: usize,
    weight: f64,
    src_idx: usize,
}

/// Decodes edge `id`.
fn out_edge(g: &Em3dGraph, index: &EdgeIndex, id: usize) -> OutEdge {
    let edge = g.edges[id];
    let src = g.source(id);
    let side = src.side.other();
    let dst_proc = edge.dst_proc as usize;
    OutEdge {
        dst_proc,
        side,
        dst_idx: edge.dst_idx as usize,
        slot: index.slot(id, side, dst_proc),
        weight: edge.weight,
        src_idx: src.idx,
    }
}

/// Shared-memory addresses of one processor's arrays.
#[derive(Clone, Debug)]
struct Arrays {
    e_vals: GAddr,
    h_vals: GAddr,
    /// In-degree count words, E side then H side (one u64 per node).
    counts: GAddr,
    in_e_w: GAddr,
    in_e_ptr: GAddr,
    in_h_w: GAddr,
    in_h_ptr: GAddr,
    /// Per-node in-edge list starts (E side then H side), as u64 slots.
    starts: GAddr,
}

/// Runs EM3D-SM and returns the measurements (Tables 14 and 15; Tables 16
/// and 17 via the cache/allocation fields of [`SmConfig`]), with "init"
/// and "main" phase snapshots.
pub fn run(p: &Em3dParams, scfg: SmConfig) -> AppRun {
    try_run(p, scfg).unwrap_or_else(|err| panic!("{err}"))
}

/// Fallible variant of [`run`]: surfaces an engine failure (deadlock,
/// livelock, watchdog) as a structured [`SimError`] instead of
/// panicking, so a grid run can report the failing experiment and let
/// the others finish.
pub fn try_run(p: &Em3dParams, scfg: SmConfig) -> Result<AppRun, SimError> {
    let mut engine = Engine::new(p.procs, scfg.sim);
    let m = SmMachine::new(&engine, scfg);
    let rec = PhaseRecorder::new(Rc::clone(engine.sim()));
    let g = Rc::new(gen_graph(p));
    // Built once and shared by every processor task and the reference.
    let index = Rc::new(EdgeIndex::new(&g));
    let in_deg = |side: Side, q: usize| index.sinks(side).proc_ids(q).len();

    // Allocate every processor's arrays up front (allocation-policy aware:
    // `gmalloc(q, ..)` homes on q only under the Local policy).
    let arrays: Rc<Vec<Arrays>> = Rc::new(
        (0..p.procs)
            .map(|q| Arrays {
                e_vals: m.gmalloc(q, (p.e_per_proc * 8) as u64, 32),
                h_vals: m.gmalloc(q, (p.h_per_proc * 8) as u64, 32),
                counts: m.gmalloc(q, ((p.e_per_proc + p.h_per_proc) * 8) as u64, 32),
                in_e_w: m.gmalloc(q, (in_deg(Side::E, q) * 8).max(8) as u64, 32),
                in_e_ptr: m.gmalloc(q, (in_deg(Side::E, q) * 8).max(8) as u64, 32),
                in_h_w: m.gmalloc(q, (in_deg(Side::H, q) * 8).max(8) as u64, 32),
                in_h_ptr: m.gmalloc(q, (in_deg(Side::H, q) * 8).max(8) as u64, 32),
                starts: m.gmalloc(q, ((p.e_per_proc + p.h_per_proc) * 8) as u64, 32),
            })
            .collect(),
    );
    let locks: Rc<Vec<Vec<McsLock>>> = Rc::new(
        (0..p.procs)
            .map(|_| (0..LOCKS_PER_PROC).map(|_| McsLock::new(&m)).collect())
            .collect(),
    );

    for proc in engine.proc_ids() {
        let m = Rc::clone(&m);
        let cpu = engine.cpu(proc);
        let rec = Rc::clone(&rec);
        let g = Rc::clone(&g);
        let index = Rc::clone(&index);
        let arrays = Rc::clone(&arrays);
        let locks = Rc::clone(&locks);
        let p = p.clone();
        engine.spawn(proc, async move {
            let me = proc.index();
            let a = &arrays[me];

            // --- initialization -------------------------------------------
            // Local node values.
            for (i, &v) in g.e0[me].iter().enumerate() {
                m.poke_f64(a.e_vals.offset_by((i * 8) as u64), v);
            }
            for (i, &v) in g.h0[me].iter().enumerate() {
                m.poke_f64(a.h_vals.offset_by((i * 8) as u64), v);
            }
            m.touch_write(&cpu, a.e_vals, (p.e_per_proc * 8) as u64)
                .await;
            m.touch_write(&cpu, a.h_vals, (p.h_per_proc * 8) as u64)
                .await;
            cpu.compute(20 * (p.e_per_proc + p.h_per_proc) as u64 * p.degree as u64);

            // Pass 1: increment in-degree counts at the sinks (remote
            // writes under locks).
            let my_edges = me * g.edges_per_proc()..(me + 1) * g.edges_per_proc();
            for rec_ in my_edges.clone().map(|id| out_edge(&g, &index, id)) {
                let d = &arrays[rec_.dst_proc];
                let side_off = match rec_.side {
                    Side::E => 0,
                    Side::H => p.e_per_proc,
                };
                let cnt = d.counts.offset_by(((side_off + rec_.dst_idx) * 8) as u64);
                let remote = rec_.dst_proc != me;
                if remote {
                    let lock = &locks[rec_.dst_proc][rec_.dst_idx % LOCKS_PER_PROC];
                    lock.acquire(&m, &cpu).await;
                    let c = m.read_u64(&cpu, cnt).await;
                    m.write_u64(&cpu, cnt, c + 1).await;
                    lock.release(&m, &cpu).await;
                } else {
                    let c = m.read_u64(&cpu, cnt).await;
                    m.write_u64(&cpu, cnt, c + 1).await;
                }
                cpu.compute(6);
            }
            m.barrier(&cpu).await;

            // Owners turn counts into per-node starts (a local scan).
            m.touch_read(&cpu, a.counts, ((p.e_per_proc + p.h_per_proc) * 8) as u64)
                .await;
            m.touch_write(&cpu, a.starts, ((p.e_per_proc + p.h_per_proc) * 8) as u64)
                .await;
            cpu.compute(4 * (p.e_per_proc + p.h_per_proc) as u64);
            m.barrier(&cpu).await;

            // Pass 2: install (weight, source-pointer) records at the
            // sinks, bumping a cursor under the same locks.
            for rec_ in my_edges.map(|id| out_edge(&g, &index, id)) {
                let d = &arrays[rec_.dst_proc];
                let (w_arr, ptr_arr) = match rec_.side {
                    Side::E => (d.in_e_w, d.in_e_ptr),
                    Side::H => (d.in_h_w, d.in_h_ptr),
                };
                // The source value this edge reads in the main loop: E
                // sinks read H sources and vice versa.
                let src_vals = match rec_.side {
                    Side::E => a.h_vals,
                    Side::H => a.e_vals,
                };
                let src_addr = src_vals.offset_by((rec_.src_idx * 8) as u64);
                let w_slot = w_arr.offset_by((rec_.slot * 8) as u64);
                let p_slot = ptr_arr.offset_by((rec_.slot * 8) as u64);
                let remote = rec_.dst_proc != me;
                if remote {
                    let lock = &locks[rec_.dst_proc][rec_.dst_idx % LOCKS_PER_PROC];
                    lock.acquire(&m, &cpu).await;
                    // Cursor bump (read + write of the count word).
                    let side_off = match rec_.side {
                        Side::E => 0,
                        Side::H => p.e_per_proc,
                    };
                    let cnt = d.counts.offset_by(((side_off + rec_.dst_idx) * 8) as u64);
                    let c = m.read_u64(&cpu, cnt).await;
                    m.write_u64(&cpu, cnt, c + 1).await;
                    m.write_f64(&cpu, w_slot, rec_.weight).await;
                    m.write_u64(&cpu, p_slot, src_addr.raw()).await;
                    lock.release(&m, &cpu).await;
                } else {
                    m.poke_f64(w_slot, rec_.weight);
                    m.poke_u64(p_slot, src_addr.raw());
                    m.touch_write(&cpu, w_slot, 8).await;
                    m.touch_write(&cpu, p_slot, 8).await;
                }
                // Host-side ground truth regardless of simulated timing.
                m.poke_f64(w_slot, rec_.weight);
                m.poke_u64(p_slot, src_addr.raw());
                cpu.compute(10);
            }
            m.barrier(&cpu).await;
            if me == 0 {
                rec.mark("init");
            }

            // --- main loop --------------------------------------------------
            // Unique remote source blocks per half (for flush/prefetch
            // hints): H sources feed the E half and vice versa.
            let remote_blocks = |sink_side: Side| -> Vec<GAddr> {
                let mut blocks: Vec<u64> = index
                    .sinks(sink_side)
                    .proc_ids(me)
                    .iter()
                    .map(|&id| g.source(id as usize))
                    .filter(|src| src.proc != me)
                    .map(|src| {
                        let vals = match src.side {
                            Side::H => arrays[src.proc].h_vals,
                            Side::E => arrays[src.proc].e_vals,
                        };
                        vals.offset_by((src.idx * 8) as u64).block().raw()
                    })
                    .collect();
                blocks.sort_unstable();
                blocks.dedup();
                blocks.into_iter().map(GAddr::from_raw).collect()
            };
            let remote_h = remote_blocks(Side::E);
            let remote_e = remote_blocks(Side::H);
            let starts_e = index.e.proc_starts(me);
            let starts_h = index.h.proc_starts(me);
            for _ in 0..p.iters {
                if p.hint == Em3dHint::Prefetch {
                    for b in &remote_h {
                        m.prefetch(&cpu, *b, 32).await;
                    }
                }
                half_step(&m, &cpu, &p, a.e_vals, a.in_e_w, a.in_e_ptr, starts_e).await;
                if p.hint == Em3dHint::Flush {
                    for b in &remote_h {
                        m.flush(&cpu, *b, 32).await;
                    }
                }
                m.bulk_publish(&cpu, a.e_vals, (p.e_per_proc * 8) as u64)
                    .await;
                m.barrier(&cpu).await;
                if p.hint == Em3dHint::Prefetch {
                    for b in &remote_e {
                        m.prefetch(&cpu, *b, 32).await;
                    }
                }
                half_step(&m, &cpu, &p, a.h_vals, a.in_h_w, a.in_h_ptr, starts_h).await;
                if p.hint == Em3dHint::Flush {
                    for b in &remote_e {
                        m.flush(&cpu, *b, 32).await;
                    }
                }
                m.bulk_publish(&cpu, a.h_vals, (p.h_per_proc * 8) as u64)
                    .await;
                m.barrier(&cpu).await;
            }
            if me == 0 {
                rec.mark("main");
            }
        });
    }

    let report = engine.try_run()?;
    let mut got_e = Vec::new();
    let mut got_h = Vec::new();
    for q in 0..p.procs {
        let mut e = vec![0.0f64; p.e_per_proc];
        m.peek_f64s(arrays[q].e_vals, &mut e);
        let mut h = vec![0.0f64; p.h_per_proc];
        m.peek_f64s(arrays[q].h_vals, &mut h);
        got_e.push(e);
        got_h.push(h);
    }
    let refv = reference(p, &g, &index);
    let validation = validate_values(&refv, &got_e, &got_h);
    Ok(AppRun {
        report,
        phases: rec.phases(),
        validation,
        stats: vec![("iters".into(), p.iters as f64)],
        artifact: got_e.into_iter().flatten().collect(),
    })
}

/// One half-step: stream the in-edge arrays, read each source value in
/// place (local or remote shared memory), and write the updated sinks.
/// `starts` are the index's run starts of this processor's sinks; their
/// differences are the in-degrees.
async fn half_step(
    m: &Rc<SmMachine>,
    cpu: &wwt_sim::Cpu,
    p: &Em3dParams,
    sink_vals: GAddr,
    w_arr: GAddr,
    ptr_arr: GAddr,
    starts: &[u32],
) {
    let mut cursor = 0usize;
    for (i, run) in starts.windows(2).enumerate() {
        let deg = (run[1] - run[0]) as usize;
        if deg > 0 {
            // Stream the weight and pointer arrays for this node.
            m.touch_read(cpu, w_arr.offset_by((cursor * 8) as u64), (deg * 8) as u64)
                .await;
            m.touch_read(
                cpu,
                ptr_arr.offset_by((cursor * 8) as u64),
                (deg * 8) as u64,
            )
            .await;
        }
        let mut acc = 0.0;
        for k in 0..deg {
            let w = m.peek_f64(w_arr.offset_by(((cursor + k) * 8) as u64));
            let src = GAddr::from_raw(m.peek_u64(ptr_arr.offset_by(((cursor + k) * 8) as u64)));
            m.touch_read(cpu, src, 8).await;
            acc += w * m.peek_f64(src);
        }
        cursor += deg;
        let sink = sink_vals.offset_by((i * 8) as u64);
        let old = m.peek_f64(sink);
        m.touch_write(cpu, sink, 8).await;
        m.poke_f64(sink, old - acc);
        cpu.compute(p.node_cost + p.edge_cost * deg as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_mem::CacheGeometry;
    use wwt_mp::MpConfig;
    use wwt_sim::{Counter, Kind, Scope};
    use wwt_sm::{AllocPolicy, ProtocolMode};

    #[test]
    fn matches_sequential_reference_bitwise() {
        let p = Em3dParams::small();
        let r = run(&p, SmConfig::default());
        assert!(r.validation.passed, "{}", r.validation.detail);
        assert!(
            r.validation.detail.contains("0.000e0"),
            "{}",
            r.validation.detail
        );
    }

    #[test]
    fn sm_and_mp_agree_exactly() {
        let p = Em3dParams::small();
        let a = run(&p, SmConfig::default());
        let b = crate::em3d::mp::run(&p, MpConfig::default());
        assert_eq!(a.artifact, b.artifact);
    }

    #[test]
    fn init_uses_locks_main_loop_does_not() {
        let p = Em3dParams::small();
        let r = run(&p, SmConfig::default());
        let init = r.phase("init").expect("init phase");
        let total_locks: u64 = r.report.total_counter(Counter::LockAcquires);
        let init_locks: u64 = init
            .snapshot
            .iter()
            .map(|(_, _, c)| c.get(Counter::LockAcquires))
            .sum();
        assert!(total_locks > 0);
        assert_eq!(init_locks, total_locks, "all locking happens in init");
        assert!(r.report.avg_matrix().by_scope(Scope::Lock) > 0);
    }

    #[test]
    fn main_loop_is_dominated_by_shared_misses() {
        let p = Em3dParams {
            iters: 6,
            ..Em3dParams::small()
        };
        let r = run(&p, SmConfig::default());
        let avg = r.report.avg_matrix();
        let shared = avg.by_kind(Kind::ShMissRemote) + avg.by_kind(Kind::ShMissLocal);
        assert!(shared > avg.by_kind(Kind::PrivMiss));
        assert!(r.report.total_counter(Counter::WriteFaults) > 0);
    }

    #[test]
    fn round_robin_allocation_makes_misses_remote() {
        let p = Em3dParams::small();
        let rr = run(&p, SmConfig::default());
        let local = run(
            &p,
            SmConfig {
                alloc_policy: AllocPolicy::Local,
                ..SmConfig::default()
            },
        );
        let remote_frac = |r: &AppRun| {
            let rem = r.report.total_counter(Counter::ShMissesRemote) as f64;
            let loc = r.report.total_counter(Counter::ShMissesLocal) as f64;
            rem / (rem + loc)
        };
        assert!(
            remote_frac(&rr) > remote_frac(&local) + 0.15,
            "round-robin {:.2} vs local {:.2}",
            remote_frac(&rr),
            remote_frac(&local)
        );
        assert!(local.report.elapsed() < rr.report.elapsed());
        assert!(local.validation.passed);
    }

    #[test]
    fn bigger_cache_speeds_up_main_loop() {
        let p = Em3dParams {
            e_per_proc: 300,
            h_per_proc: 300,
            degree: 8,
            procs: 4,
            iters: 3,
            ..Em3dParams::small()
        };
        // Shrink the cache to make capacity misses matter at test scale.
        let small_cache = SmConfig {
            arch: wwt_sm::ArchParams {
                cache: CacheGeometry {
                    size_bytes: 8 * 1024,
                    ways: 4,
                    block_bytes: 32,
                },
                ..wwt_sm::ArchParams::default()
            },
            ..SmConfig::default()
        };
        let big_cache = SmConfig::default();
        let small = run(&p, small_cache);
        let big = run(&p, big_cache);
        assert!(big.report.elapsed() < small.report.elapsed());
        assert!(big.validation.passed && small.validation.passed);
    }

    #[test]
    fn bulk_update_protocol_cuts_communication() {
        let p = Em3dParams::small();
        let inval = run(&p, SmConfig::default());
        let bulk = run(
            &p,
            SmConfig {
                protocol: ProtocolMode::BulkUpdate,
                ..SmConfig::default()
            },
        );
        assert!(bulk.validation.passed);
        assert!(
            bulk.report.total_counter(Counter::WriteFaults)
                < inval.report.total_counter(Counter::WriteFaults)
        );
    }
}

#[cfg(test)]
mod hint_tests {
    use super::*;
    use crate::em3d::Em3dHint;
    use wwt_sim::{Counter, Kind};

    fn run_with(hint: Em3dHint) -> AppRun {
        let p = Em3dParams {
            e_per_proc: 120,
            h_per_proc: 120,
            degree: 6,
            iters: 6,
            hint,
            ..Em3dParams::small()
        };
        // Local allocation, so the misses the hints target (the
        // producer-consumer value updates) dominate.
        run(
            &p,
            SmConfig {
                alloc_policy: wwt_sm::AllocPolicy::Local,
                ..SmConfig::default()
            },
        )
    }

    #[test]
    fn flush_hint_cheapens_the_producers_writes() {
        let base = run_with(Em3dHint::None);
        let flush = run_with(Em3dHint::Flush);
        assert!(flush.validation.passed, "{}", flush.validation.detail);
        // Identical values either way.
        assert_eq!(base.artifact, flush.artifact);
        // Consumers flushed, so producers' write upgrades invalidate fewer
        // sharers: the write-fault stall shrinks.
        let wf = |r: &AppRun| r.report.avg_matrix().by_kind(Kind::WriteFault);
        assert!(
            wf(&flush) < wf(&base),
            "flush write-fault cycles {} !< base {}",
            wf(&flush),
            wf(&base)
        );
    }

    #[test]
    fn prefetch_hint_cuts_demand_miss_stall() {
        let base = run_with(Em3dHint::None);
        let pf = run_with(Em3dHint::Prefetch);
        assert!(pf.validation.passed, "{}", pf.validation.detail);
        assert_eq!(base.artifact, pf.artifact);
        // The remote values arrive ahead of the demand reads: the shared
        // miss stall in the main loop shrinks even though the traffic
        // (misses counted) does not.
        let stall = |r: &AppRun| {
            let m = r.report.avg_matrix();
            m.by_kind(Kind::ShMissRemote) + m.by_kind(Kind::ShMissLocal)
        };
        assert!(
            stall(&pf) < stall(&base),
            "prefetch stall {} !< base {}",
            stall(&pf),
            stall(&base)
        );
        assert!(
            pf.report.total_counter(Counter::ShMissesRemote)
                >= base.report.total_counter(Counter::ShMissesRemote),
            "prefetching must not reduce traffic"
        );
    }
}
