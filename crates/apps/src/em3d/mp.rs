//! EM3D-MP: ghost nodes updated by bulk channel messages.
//!
//! Each remote edge gets a *ghost node* on the sink side (the paper's
//! variant of the Split-C code: one ghost per remote edge, which keeps
//! initialization simple at the cost of slightly more data). Before each
//! half-step a processor gathers the values its neighbors need and sends
//! them in one bulk channel message per neighbor; the channel's receive
//! buffer *is* the ghost array, so data lands in place with no copying.
//! All communication is sender-initiated, in bulk, and handshake-free —
//! the three properties the paper credits for EM3D-MP's 2x win.

use std::rc::Rc;

use wwt_mp::{ChannelId, MpConfig, MpMachine, SendChannel};
use wwt_sim::{Engine, ProcId, SimError};

use crate::common::{AppRun, PhaseRecorder};
use crate::em3d::{gen_graph, reference, validate_values, EdgeIndex, Em3dGraph, Em3dParams, Side};

/// One resolved in-edge: its weight and where its source value lives.
/// If `src` is the sink's own processor, `idx` indexes the source side's
/// value array; otherwise it is a slot of the ghost array fed by `src`.
#[derive(Copy, Clone, Debug, Default)]
struct InEdge {
    w: f64,
    src: u32,
    idx: u32,
}

/// Per-processor communication plan derived from the shared graph.
#[derive(Debug)]
struct ProcPlan {
    /// E-side values to send, per destination: my E node indices.
    send_e: Vec<Vec<usize>>,
    /// H-side values to send, per destination.
    send_h: Vec<Vec<usize>>,
    /// Edge-info records to transmit during initialization, per
    /// destination: (sink idx, sink side, weight).
    send_info: Vec<Vec<(u32, Side, f64)>>,
    /// Resolved in-edges of my E nodes (H sources), node-major in the
    /// order of the index's `e` runs for this processor.
    in_e: Vec<InEdge>,
    /// Resolved in-edges of my H nodes, node-major like `in_e`.
    in_h: Vec<InEdge>,
}

fn build_plans(p: &Em3dParams, g: &Em3dGraph, index: &EdgeIndex) -> Vec<ProcPlan> {
    let mut plans: Vec<ProcPlan> = (0..p.procs)
        .map(|q| ProcPlan {
            send_e: vec![Vec::new(); p.procs],
            send_h: vec![Vec::new(); p.procs],
            send_info: vec![Vec::new(); p.procs],
            in_e: vec![InEdge::default(); index.e.proc_ids(q).len()],
            in_h: vec![InEdge::default(); index.h.proc_ids(q).len()],
        })
        .collect();
    for (id, edge) in g.edges.iter().enumerate() {
        let src = g.source(id);
        let sink_side = src.side.other();
        let dst = edge.dst_proc as usize;
        let idx = if src.proc == dst {
            src.idx
        } else {
            let sender = &mut plans[src.proc];
            let list = match src.side {
                Side::E => &mut sender.send_e[dst],
                Side::H => &mut sender.send_h[dst],
            };
            // Ghost slots are assigned in global edge order, which is
            // also the order senders gather values in, so slot k of the
            // ghost array always receives the k-th value of the bulk
            // message.
            let slot = list.len();
            list.push(src.idx);
            sender.send_info[dst].push((edge.dst_idx, sink_side, edge.weight));
            slot
        };
        let sink = &mut plans[dst];
        let ins = match sink_side {
            Side::E => &mut sink.in_e,
            Side::H => &mut sink.in_h,
        };
        ins[index.slot(id, sink_side, dst)] = InEdge {
            w: edge.weight,
            src: src.proc as u32,
            idx: idx as u32,
        };
    }
    plans
}

const INFO_BYTES: u64 = 16; // (sink idx, side, weight) record

/// Runs EM3D-MP and returns the measurements (Tables 12 and 13), with
/// "init" and "main" phase snapshots.
pub fn run(p: &Em3dParams, mcfg: MpConfig) -> AppRun {
    try_run(p, mcfg).unwrap_or_else(|err| panic!("{err}"))
}

/// Fallible variant of [`run`]: surfaces an engine failure (deadlock,
/// livelock, watchdog) as a structured [`SimError`] instead of
/// panicking, so a grid run can report the failing experiment and let
/// the others finish.
pub fn try_run(p: &Em3dParams, mcfg: MpConfig) -> Result<AppRun, SimError> {
    let mut engine = Engine::new(p.procs, mcfg.sim);
    let m = MpMachine::new(&engine, mcfg);
    let rec = PhaseRecorder::new(Rc::clone(engine.sim()));
    let g = Rc::new(gen_graph(p));
    // Built once and shared by the plans, every processor task and the
    // reference.
    let index = Rc::new(EdgeIndex::new(&g));
    let plans = Rc::new(build_plans(p, &g, &index));
    // Each task records where its value arrays actually start (allocation
    // is 32-byte aligned, so offsets are not simply array-size multiples).
    let val_offs: Rc<std::cell::RefCell<Vec<(u64, u64)>>> =
        Rc::new(std::cell::RefCell::new(vec![(0, 0); p.procs]));

    for proc in engine.proc_ids() {
        let m = Rc::clone(&m);
        let cpu = engine.cpu(proc);
        let rec = Rc::clone(&rec);
        let g = Rc::clone(&g);
        let plans = Rc::clone(&plans);
        let index = Rc::clone(&index);
        let val_offs = Rc::clone(&val_offs);
        let p = p.clone();
        engine.spawn(proc, async move {
            let me = proc.index();
            let np = p.procs;
            let plan = &plans[me];

            // --- local memory layout --------------------------------------
            let e_vals = m.alloc(proc, (p.e_per_proc * 8) as u64, 32);
            let h_vals = m.alloc(proc, (p.h_per_proc * 8) as u64, 32);
            val_offs.borrow_mut()[me] = (e_vals, h_vals);
            let ghost_len = |q: usize, side: Side| match side {
                Side::E => plans[q].send_e[me].len(),
                Side::H => plans[q].send_h[me].len(),
            };
            let mut ghost_e = vec![0u64; np];
            let mut ghost_h = vec![0u64; np];
            for q in 0..np {
                if q != me {
                    ghost_e[q] = m.alloc(proc, (ghost_len(q, Side::E) * 8).max(8) as u64, 32);
                    ghost_h[q] = m.alloc(proc, (ghost_len(q, Side::H) * 8).max(8) as u64, 32);
                }
            }
            // In-edge stream arrays (weights + pointers, 16 bytes/edge).
            let in_e_deg = plan.in_e.len();
            let in_h_deg = plan.in_h.len();
            let in_e_stream = m.alloc(proc, (in_e_deg as u64 * 16).max(16), 32);
            let in_h_stream = m.alloc(proc, (in_h_deg as u64 * 16).max(16), 32);
            // Send gather buffers.
            let mut buf_e = vec![0u64; np];
            let mut buf_h = vec![0u64; np];
            for q in 0..np {
                buf_e[q] = m.alloc(proc, (plan.send_e[q].len() * 8).max(8) as u64, 32);
                buf_h[q] = m.alloc(proc, (plan.send_h[q].len() * 8).max(8) as u64, 32);
            }
            // Init-phase edge-info scratch.
            let in_info_len: Vec<usize> = (0..np).map(|q| plans[q].send_info[me].len()).collect();
            let info_scratch = m.alloc(
                proc,
                (in_info_len.iter().max().copied().unwrap_or(0) as u64 * INFO_BYTES).max(16),
                32,
            );

            // --- channel setup ---------------------------------------------
            // Open receive channels (announcing to the senders), then bind
            // our send channels. Open/bind orders are symmetric.
            let mut chan_info_in: Vec<Option<ChannelId>> = vec![None; np];
            let mut chan_e_in: Vec<Option<ChannelId>> = vec![None; np];
            let mut chan_h_in: Vec<Option<ChannelId>> = vec![None; np];
            for q in 0..np {
                if q == me {
                    continue;
                }
                if in_info_len[q] > 0 {
                    chan_info_in[q] = Some(
                        m.channel_open_recv(
                            &cpu,
                            ProcId::new(q),
                            info_scratch,
                            (in_info_len[q] as u64 * INFO_BYTES) as u32,
                        )
                        .expect("capacity within the channel limit"),
                    );
                }
                if ghost_len(q, Side::E) > 0 {
                    chan_e_in[q] = Some(
                        m.channel_open_recv(
                            &cpu,
                            ProcId::new(q),
                            ghost_e[q],
                            (ghost_len(q, Side::E) * 8) as u32,
                        )
                        .expect("capacity within the channel limit"),
                    );
                }
                if ghost_len(q, Side::H) > 0 {
                    chan_h_in[q] = Some(
                        m.channel_open_recv(
                            &cpu,
                            ProcId::new(q),
                            ghost_h[q],
                            (ghost_len(q, Side::H) * 8) as u32,
                        )
                        .expect("capacity within the channel limit"),
                    );
                }
            }
            let mut out_info: Vec<Option<SendChannel>> = vec![None; np];
            let mut out_e: Vec<Option<SendChannel>> = vec![None; np];
            let mut out_h: Vec<Option<SendChannel>> = vec![None; np];
            for q in 0..np {
                if q == me {
                    continue;
                }
                if !plan.send_info[q].is_empty() {
                    out_info[q] = Some(m.channel_bind(&cpu, ProcId::new(q)).await);
                }
                if !plan.send_e[q].is_empty() {
                    out_e[q] = Some(m.channel_bind(&cpu, ProcId::new(q)).await);
                }
                if !plan.send_h[q].is_empty() {
                    out_h[q] = Some(m.channel_bind(&cpu, ProcId::new(q)).await);
                }
            }
            m.barrier(&cpu).await;

            // --- initialization ---------------------------------------------
            // Generate local nodes and values.
            for (i, &v) in g.e0[me].iter().enumerate() {
                m.poke_f64(proc, e_vals + (i * 8) as u64, v);
            }
            for (i, &v) in g.h0[me].iter().enumerate() {
                m.poke_f64(proc, h_vals + (i * 8) as u64, v);
            }
            m.touch_write(&cpu, e_vals, (p.e_per_proc * 8) as u64);
            m.touch_write(&cpu, h_vals, (p.h_per_proc * 8) as u64);
            cpu.compute(20 * (p.e_per_proc + p.h_per_proc) as u64 * p.degree as u64);

            // Transmit edge info for our remote out-edges in one bulk
            // message per neighbor (the paper's reverse-edge exchange).
            for q in 0..np {
                if let Some(ch) = &out_info[q] {
                    let recs = &plan.send_info[q];
                    for (k, &(dst, side, w)) in recs.iter().enumerate() {
                        let off = buf_e[q]; // reuse gather buffer as staging
                        let _ = off;
                        let base = info_scratch; // staging in our own scratch
                        let o = base + k as u64 * INFO_BYTES;
                        m.poke_u32(proc, o, dst);
                        m.poke_u32(proc, o + 4, matches!(side, Side::H) as u32);
                        m.poke_f64(proc, o + 8, w);
                    }
                    m.touch_write(&cpu, info_scratch, recs.len() as u64 * INFO_BYTES);
                    cpu.compute(8 * recs.len() as u64);
                    m.channel_write(
                        &cpu,
                        ch,
                        info_scratch,
                        (recs.len() as u64 * INFO_BYTES) as u32,
                    );
                }
            }
            // Receive edge info and build the in-edge stream arrays
            // (reference the data twice: in-degree count, then pointers).
            for q in 0..np {
                if let Some(id) = chan_info_in[q] {
                    let got = m.channel_wait(&cpu, id).await;
                    m.touch_read(&cpu, info_scratch, got as u64);
                    cpu.compute(6 * (got as u64 / INFO_BYTES));
                }
            }
            // Build pass: count in-degrees, then write (weight, pointer)
            // records for every in-edge (local and ghost alike).
            m.touch_write(&cpu, in_e_stream, (in_e_deg as u64 * 16).max(16));
            m.touch_write(&cpu, in_h_stream, (in_h_deg as u64 * 16).max(16));
            cpu.compute(12 * (in_e_deg + in_h_deg) as u64);

            // Prime the H ghosts so the first E half-step sees current
            // remote values.
            for q in 0..np {
                if let Some(ch) = &out_h[q] {
                    gather_send(&m, &cpu, &plan.send_h[q], h_vals, buf_h[q], ch);
                }
            }
            for q in 0..np {
                if let Some(id) = chan_h_in[q] {
                    m.channel_wait(&cpu, id).await;
                }
            }
            m.barrier(&cpu).await;
            if me == 0 {
                rec.mark("init");
            }

            // --- main loop ----------------------------------------------------
            for _ in 0..p.iters {
                // E half-step: new E from H in-neighbors.
                half_step(
                    &m,
                    &cpu,
                    &p,
                    index.e.proc_starts(me),
                    &plan.in_e,
                    e_vals,
                    h_vals,
                    &ghost_h,
                    in_e_stream,
                )
                .await;
                // Ship new E values to neighbors, then collect ours.
                for q in 0..np {
                    if let Some(ch) = &out_e[q] {
                        gather_send(&m, &cpu, &plan.send_e[q], e_vals, buf_e[q], ch);
                    }
                }
                for q in 0..np {
                    if let Some(id) = chan_e_in[q] {
                        m.channel_wait(&cpu, id).await;
                    }
                }
                // H half-step: new H from E in-neighbors.
                half_step(
                    &m,
                    &cpu,
                    &p,
                    index.h.proc_starts(me),
                    &plan.in_h,
                    h_vals,
                    e_vals,
                    &ghost_e,
                    in_h_stream,
                )
                .await;
                for q in 0..np {
                    if let Some(ch) = &out_h[q] {
                        gather_send(&m, &cpu, &plan.send_h[q], h_vals, buf_h[q], ch);
                    }
                }
                for q in 0..np {
                    if let Some(id) = chan_h_in[q] {
                        m.channel_wait(&cpu, id).await;
                    }
                }
            }
            m.barrier(&cpu).await;
            if me == 0 {
                rec.mark("main");
            }
            // Leave the final values where the harness can find them: they
            // are already in e_vals/h_vals.
            let _ = (e_vals, h_vals);
        });
    }

    let report = engine.try_run()?;

    // Collect final values for validation from the recorded offsets.
    let mut got_e = Vec::new();
    let mut got_h = Vec::new();
    for q in 0..p.procs {
        let (e_off, h_off) = val_offs.borrow()[q];
        let mut e = vec![0.0f64; p.e_per_proc];
        m.peek_f64s(ProcId::new(q), e_off, &mut e);
        let mut h = vec![0.0f64; p.h_per_proc];
        m.peek_f64s(ProcId::new(q), h_off, &mut h);
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

/// One half-step over the side being updated, whose sinks' in-edges are
/// `ins`, node-major, with node runs at `starts` (minus `starts[0]`):
/// streams the in-edge arrays, reads each source value (local array or
/// ghost slot), and writes the updated sink values.
#[allow(clippy::too_many_arguments)]
async fn half_step(
    m: &Rc<MpMachine>,
    cpu: &wwt_sim::Cpu,
    p: &Em3dParams,
    starts: &[u32],
    ins: &[InEdge],
    sink_vals: u64,
    src_vals: u64,
    ghosts: &[u64],
    stream: u64,
) {
    let proc = cpu.id();
    let me = proc.index() as u32;
    let mut edge_cursor = 0u64;
    for (i, run) in starts.windows(2).enumerate() {
        let edges = &ins[(run[0] - starts[0]) as usize..(run[1] - starts[0]) as usize];
        let deg = edges.len() as u64;
        if deg > 0 {
            m.touch_read(cpu, stream + edge_cursor * 16, deg * 16);
            edge_cursor += deg;
        }
        let mut acc = 0.0;
        for e in edges {
            let base = if e.src == me {
                src_vals
            } else {
                ghosts[e.src as usize]
            };
            let addr = base + e.idx as u64 * 8;
            m.touch_read(cpu, addr, 8);
            acc += e.w * m.peek_f64(proc, addr);
        }
        let sink = sink_vals + (i * 8) as u64;
        let old = m.peek_f64(proc, sink);
        m.poke_f64(proc, sink, old - acc);
        m.touch_write(cpu, sink, 8);
        cpu.compute(p.node_cost + p.edge_cost * deg);
    }
    cpu.resync_if_ahead().await;
}

/// Gathers the listed source values into a contiguous buffer and ships
/// them over the channel in one bulk message.
fn gather_send(
    m: &Rc<MpMachine>,
    cpu: &wwt_sim::Cpu,
    list: &[usize],
    vals: u64,
    buf: u64,
    ch: &SendChannel,
) {
    let proc = cpu.id();
    for (k, &idx) in list.iter().enumerate() {
        let src = vals + (idx * 8) as u64;
        m.touch_read(cpu, src, 8);
        let v = m.peek_f64(proc, src);
        m.poke_f64(proc, buf + (k * 8) as u64, v);
    }
    m.touch_write(cpu, buf, (list.len() * 8) as u64);
    cpu.compute(4 * list.len() as u64);
    m.channel_write(cpu, ch, buf, (list.len() * 8) as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_sim::{Counter, Kind, Scope};

    #[test]
    fn matches_sequential_reference_bitwise() {
        let p = Em3dParams::small();
        let r = run(&p, MpConfig::default());
        assert!(r.validation.passed, "{}", r.validation.detail);
        // Same in-edge order as the reference: the error is exactly zero.
        assert!(
            r.validation.detail.contains("0.000e0"),
            "{}",
            r.validation.detail
        );
    }

    #[test]
    fn records_init_and_main_phases() {
        let p = Em3dParams::small();
        let r = run(&p, MpConfig::default());
        assert!(r.phase("init").is_some());
        assert!(r.phase("main").is_some());
        let init_clock = r.phase("init").unwrap().snapshot[0].0;
        let main_clock = r.phase("main").unwrap().snapshot[0].0;
        assert!(main_clock > init_clock);
    }

    #[test]
    fn communication_is_bulk_channel_messages() {
        let p = Em3dParams::small();
        let r = run(&p, MpConfig::default());
        let writes = r.report.avg_counter(Counter::ChannelWrites);
        // Per iteration: at most 2 sides x 2 neighbors, plus init traffic.
        assert!(writes > 0.0);
        let data = r.report.total_counter(Counter::BytesData);
        let ctrl = r.report.total_counter(Counter::BytesControl);
        assert!(
            data > ctrl,
            "bulk transfers are data-dominated: {data} vs {ctrl}"
        );
        // No locks exist in the message-passing version.
        assert_eq!(r.report.total_counter(Counter::LockAcquires), 0);
        assert_eq!(r.report.avg_matrix().by_kind(Kind::LockWait), 0);
    }

    #[test]
    fn span_one_limits_channel_partners() {
        let p = Em3dParams {
            e_per_proc: 100,
            h_per_proc: 100,
            procs: 8,
            span: 1,
            ..Em3dParams::small()
        };
        let r = run(&p, MpConfig::default());
        // Each processor talks only to its 2 neighbors: per iteration at
        // most 4 data channel-writes (2 sides x 2 neighbors).
        let per_iter = (r.report.avg_counter(Counter::ChannelWrites) - 3.0/* init edge-info + priming, roughly */)
            / p.iters as f64;
        assert!(per_iter <= 5.0, "channel writes per iteration: {per_iter}");
    }

    #[test]
    fn lib_time_is_visible_but_moderate() {
        let p = Em3dParams::small();
        let r = run(&p, MpConfig::default());
        let avg = r.report.avg_matrix();
        let lib = avg.by_scope(Scope::Lib);
        assert!(lib > 0, "library time must be charged");
    }
}
