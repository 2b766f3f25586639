//! MSE-SM: solution exchange through the shared solution vector.
//!
//! The solution vector lives in shared memory, distributed over its body
//! owners; processors read current values directly when the schedule
//! makes a pair due. The program's only explicit synchronization is the
//! parmacs start-up gate (node 0's serial initialization, the paper's
//! Start-up Wait) and a single barrier between initialization and the
//! main loop, which costs ~80M cycles because node 0 performs extra
//! initialization work while the others wait (Table 5).

use std::cell::RefCell;
use std::rc::Rc;

use wwt_mem::GAddr;
use wwt_sim::{Engine, SimError};
use wwt_sm::{CreateGate, SmConfig, SmMachine};

use crate::common::{AppRun, PhaseRecorder};
use crate::mse::{build_system, validate_solution, MseParams};

/// Runs MSE-SM and returns the measurements (Tables 5 and 7).
pub fn run(p: &MseParams, scfg: SmConfig) -> AppRun {
    try_run(p, scfg).unwrap_or_else(|err| panic!("{err}"))
}

/// Fallible variant of [`run`]: surfaces an engine failure (deadlock,
/// livelock, watchdog) as a structured [`SimError`] instead of
/// panicking, so a grid run can report the failing experiment and let
/// the others finish.
pub fn try_run(p: &MseParams, scfg: SmConfig) -> Result<AppRun, SimError> {
    assert_eq!(p.grid * p.grid, p.bodies, "bodies must fill the grid");
    assert_eq!(p.bodies % p.procs, 0, "bodies must divide evenly");
    let mut engine = Engine::new(p.procs, scfg.sim);
    let m = SmMachine::new(&engine, scfg);
    let gate = Rc::new(CreateGate::new());
    let rec = PhaseRecorder::new(Rc::clone(engine.sim()));
    let sys = Rc::new(build_system(p));
    let nm = p.unknowns();
    let mm = p.elems;

    // The shared solution vector, distributed over body owners.
    let nb_chunk = p.bodies / p.procs;
    let z_chunks: Rc<Vec<GAddr>> = Rc::new(
        (0..p.procs)
            .map(|q| m.gmalloc_on(q, (nb_chunk * mm * 8) as u64, 32))
            .collect(),
    );

    let solution: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(vec![0.0; nm]));

    for proc in engine.proc_ids() {
        let m = Rc::clone(&m);
        let cpu = engine.cpu(proc);
        let gate = Rc::clone(&gate);
        let rec = Rc::clone(&rec);
        let sys = Rc::clone(&sys);
        let z_chunks = Rc::clone(&z_chunks);
        let solution = Rc::clone(&solution);
        let p = p.clone();
        engine.spawn(proc, async move {
            let me = proc.index();
            let np = p.procs;
            let nb = p.bodies / np;
            let my_bodies: Vec<usize> = p.bodies_of(me).collect();
            let body_bytes = (mm * 8) as u64;
            // Address of body j's element block in the shared vector
            // (owner-major slot layout).
            let body_addr = |j: usize| z_chunks[p.owner(j)].offset_by(((j / np) * mm * 8) as u64);

            // --- start-up: node 0 initializes serially, then creates the
            // worker processes (the paper's parmacs model). ----------------
            if me == 0 {
                cpu.compute(p.serial_init_cycles);
                gate.release(&m, &cpu);
            } else {
                gate.wait(&cpu).await;
            }

            // Private working storage.
            let s_cache = m.alloc_private(me, (nb * p.bodies * mm * 8) as u64, 32);
            let rhs_buf = m.alloc_private(me, (nb * mm * 8) as u64, 32);

            // Parallel initialization: each node computes its diagonal and
            // right-hand-side entries; node 0 additionally initializes
            // global structures, which unbalances the barrier.
            cpu.compute(p.pair_cost / 2 * (nb * mm * p.bodies * mm) as u64);
            m.touch_write(&cpu, rhs_buf, (nb * mm * 8) as u64).await;
            m.touch_write(&cpu, z_chunks[me], (nb * mm * 8) as u64)
                .await;
            if me == 0 {
                cpu.compute(p.unbalanced_init_cycles);
            }
            m.barrier(&cpu).await;
            if me == 0 {
                rec.mark("init");
            }

            // --- asynchronous Jacobi with the exchange schedule --------------
            let mut z = vec![0.0f64; nm];
            // Contribution of source body j to local body li's elements,
            // at ((li * bodies) + j) * M, the layout of `s_cache`.
            let mut s_host = vec![0.0f64; nb * p.bodies * mm];
            for it in 0..p.iters {
                for li in 0..nb {
                    let i = my_bodies[li];
                    for j in 0..p.bodies {
                        if !(j == i || p.due(i, j, it)) {
                            continue;
                        }
                        // Read body j's current values straight from
                        // shared memory (a miss only if the owner updated
                        // them since we last looked).
                        let jaddr = body_addr(j);
                        m.touch_read(&cpu, jaddr, body_bytes).await;
                        let js = p.slot(j);
                        m.peek_f64s(jaddr, &mut z[js * mm..(js + 1) * mm]);

                        let sij = &mut s_host[(li * p.bodies + j) * mm..][..mm];
                        for e in 0..mm {
                            let mut acc = 0.0;
                            for f in 0..mm {
                                if (i, e) != (j, f) {
                                    acc += sys.kernel(i * mm + e, j * mm + f) * z[js * mm + f];
                                }
                            }
                            sij[e] = acc;
                        }
                        let s_off = s_cache.offset_by(((li * p.bodies + j) * mm * 8) as u64);
                        m.touch_write(&cpu, s_off, body_bytes).await;
                        cpu.compute(p.pair_cost * (mm * mm) as u64);
                    }
                    // Jacobi update, written to the shared vector.
                    m.touch_read(
                        &cpu,
                        s_cache.offset_by((li * p.bodies * mm * 8) as u64),
                        (p.bodies * mm * 8) as u64,
                    )
                    .await;
                    m.touch_read(&cpu, rhs_buf.offset_by((li * mm * 8) as u64), body_bytes)
                        .await;
                    let is = p.slot(i);
                    for e in 0..mm {
                        let row = i * mm + e;
                        let total: f64 = (0..p.bodies)
                            .map(|j| s_host[(li * p.bodies + j) * mm + e])
                            .sum();
                        z[is * mm + e] = (sys.rhs[row] - total) / sys.diag[row];
                    }
                    cpu.compute(4 * (p.bodies * mm) as u64);
                    let my_addr = body_addr(i);
                    m.poke_f64s(my_addr, &z[is * mm..(is + 1) * mm]);
                    m.touch_write(&cpu, my_addr, body_bytes).await;
                }
            }
            m.barrier(&cpu).await;
            if me == 0 {
                rec.mark("main");
            }
            {
                let mut sol = solution.borrow_mut();
                for &k in &my_bodies {
                    let ks = p.slot(k);
                    sol[k * mm..(k + 1) * mm].copy_from_slice(&z[ks * mm..(ks + 1) * mm]);
                }
            }
        });
    }

    let report = engine.try_run()?;
    let z = solution.borrow().clone();
    let validation = validate_solution(p, &z);
    Ok(AppRun {
        report,
        phases: rec.phases(),
        validation,
        stats: vec![("iters".into(), p.iters as f64)],
        artifact: z,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_mp::MpConfig;
    use wwt_sim::{Counter, Kind, Scope};

    #[test]
    fn converges_to_ones() {
        let p = MseParams::small();
        let r = run(&p, SmConfig::default());
        assert!(r.validation.passed, "{}", r.validation.detail);
    }

    #[test]
    fn startup_wait_and_barrier_show_load_imbalance() {
        let p = MseParams::small();
        let r = run(&p, SmConfig::default());
        // Non-zero nodes wait out the serial init in the Startup scope.
        let waiter = r.report.proc(1.into());
        assert!(
            waiter.matrix.by_scope(Scope::Startup) >= p.serial_init_cycles,
            "startup wait {} < serial init {}",
            waiter.matrix.by_scope(Scope::Startup),
            p.serial_init_cycles
        );
        // The init barrier absorbs node 0's extra work on the others.
        assert!(
            waiter.matrix.by_kind(Kind::BarrierWait) >= p.unbalanced_init_cycles,
            "barrier wait {} < unbalanced init {}",
            waiter.matrix.by_kind(Kind::BarrierWait),
            p.unbalanced_init_cycles
        );
        // Node 0 itself waits at neither.
        let zero = r.report.proc(0.into());
        assert_eq!(zero.matrix.by_scope(Scope::Startup), 0);
    }

    #[test]
    fn shared_misses_are_a_small_fraction() {
        let p = MseParams::small();
        let r = run(&p, SmConfig::default());
        let avg = r.report.avg_matrix();
        let shared = avg.by_kind(Kind::ShMissLocal) + avg.by_kind(Kind::ShMissRemote);
        let compute = avg.by_kind(Kind::Compute);
        assert!(shared * 4 < compute, "shared {shared} vs compute {compute}");
        assert!(r.report.total_counter(Counter::ShMissesRemote) > 0);
    }

    #[test]
    fn mp_and_sm_both_converge_with_comparable_quality() {
        let p = MseParams::small();
        let sm = run(&p, SmConfig::default());
        let mp = crate::mse::mp::run(&p, MpConfig::default());
        assert!(sm.validation.passed && mp.validation.passed);
        // Different staleness patterns: solutions agree loosely.
        let diff = sm
            .artifact
            .iter()
            .zip(&mp.artifact)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(diff < 0.1, "solutions diverge: {diff}");
    }
}
