//! The benchmark's workloads: which programs each one simulates, the
//! seeded inputs they simulate, and one simulation of one program.
//!
//! Every simulation builds a fresh machine, so the modelled caches, TLBs
//! and directories start empty in every simulation.

use wwt_core::apps::{em3d, gauss, mse, AppRun};
use wwt_core::arch::ArchParams;
use wwt_core::mp::{MpConfig, TreeShape};
use wwt_core::sim::{Counters, CycleMatrix, SimConfig, SimError};
use wwt_core::sm::SmConfig;
use wwt_core::table::{
    breakdown_mp, breakdown_sm, events_mp, events_sm, phase_delta, BreakdownTable, EventTable,
};
use wwt_core::Experiment;

/// One benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// EM3D-SM and Gauss-SM: scheduler, task polling, `wwt-mem` and the
    /// directory/cache controllers.
    SmCoherence,
    /// EM3D-MP and lop-sided Gauss-MP on the same inputs: the NI, active
    /// message, channel and collective stack plus the scheduler.
    MpMessaging,
    /// MSE-MP and MSE-SM: the application's numeric kernel.
    MseKernel,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SmCoherence,
        Workload::MpMessaging,
        Workload::MseKernel,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmCoherence => "sm-coherence",
            Workload::MpMessaging => "mp-messaging",
            Workload::MseKernel => "mse-kernel",
        }
    }

    /// Parses a `--workload` argument.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The programs one round of this workload simulates, in order.
    pub fn programs(self) -> &'static [Program] {
        match self {
            Workload::SmCoherence => &[Program::Em3dSm, Program::GaussSm],
            Workload::MpMessaging => &[Program::Em3dMp, Program::GaussMp],
            Workload::MseKernel => &[Program::MseMp, Program::MseSm],
        }
    }

    /// The program each set-up simulates once, untimed: the workload's
    /// cheapest, so set-up stays a small share of a run.
    pub fn warm_up(self) -> Program {
        match self {
            Workload::SmCoherence => Program::GaussSm,
            Workload::MpMessaging => Program::GaussMp,
            Workload::MseKernel => Program::MseMp,
        }
    }

    /// Whether the workload's inputs depend on the seed. `MseParams` has
    /// no seed, and every one of its fields changes what MSE computes, so
    /// `mse-kernel` simulates the same inputs for every seed.
    pub fn uses_seed(self) -> bool {
        self != Workload::MseKernel
    }
}

/// One simulated program.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Program {
    /// EM3D on the shared-memory machine.
    Em3dSm,
    /// Gauss on the shared-memory machine.
    GaussSm,
    /// EM3D on the message-passing machine.
    Em3dMp,
    /// Gauss on the message-passing machine, lop-sided collective trees.
    GaussMp,
    /// MSE on the message-passing machine.
    MseMp,
    /// MSE on the shared-memory machine.
    MseSm,
}

impl Program {
    /// Short name used in spans and the report.
    pub fn name(self) -> &'static str {
        match self {
            Program::Em3dSm => "em3d-sm",
            Program::GaussSm => "gauss-sm",
            Program::Em3dMp => "em3d-mp",
            Program::GaussMp => "gauss-mp",
            Program::MseMp => "mse-mp",
            Program::MseSm => "mse-sm",
        }
    }

    /// The experiment whose run-cache key the program's artifacts are
    /// stored under.
    pub fn experiment(self) -> Experiment {
        match self {
            Program::Em3dSm => Experiment::Em3dSm,
            Program::GaussSm => Experiment::GaussSm,
            Program::Em3dMp => Experiment::Em3dMp,
            Program::GaussMp => Experiment::GaussMp,
            Program::MseMp => Experiment::MseMp,
            Program::MseSm => Experiment::MseSm,
        }
    }

    fn shared_memory(self) -> bool {
        matches!(self, Program::Em3dSm | Program::GaussSm | Program::MseSm)
    }
}

/// The generated inputs of every program. The simulator sees only these.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// EM3D: the paper's per-processor footprint on 32 processors (1000 E
    /// and 1000 H nodes, degree 10, 20% remote edges, span 1), so the
    /// working set exceeds the modelled 256 KB cache as in Tables 14–16.
    /// Only the iteration count is reduced (the paper runs 50).
    pub em3d: em3d::Em3dParams,
    /// Gauss on 32 processors with a reduced system size (the paper
    /// solves n = 512).
    pub gauss: gauss::GaussParams,
    /// MSE on 32 processors at the paper's geometry (256 bodies of 20
    /// boundary elements) with its distance schedule and costs, but one
    /// Jacobi iteration instead of 20.
    pub mse: mse::MseParams,
}

/// MSE Jacobi iterations per simulation.
const MSE_ITERS: usize = 1;
/// EM3D iterations per simulation.
const EM3D_ITERS: usize = 2;
/// Gauss system size.
const GAUSS_N: usize = 192;

/// SplitMix64: spreads one benchmark seed into independent input seeds.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates every program's inputs from the benchmark seed.
pub fn inputs(seed: u64) -> Inputs {
    Inputs {
        em3d: em3d::Em3dParams {
            iters: EM3D_ITERS,
            seed: mix(seed, 1),
            ..em3d::Em3dParams::default()
        },
        gauss: gauss::GaussParams {
            n: GAUSS_N,
            seed: mix(seed, 2),
            ..gauss::GaussParams::default()
        },
        mse: mse::MseParams {
            iters: MSE_ITERS,
            ..mse::MseParams::default()
        },
    }
}

/// The machine configurations: the paper's hardware and default engine
/// settings. The engine's own seed stays fixed; only the inputs vary.
fn configs() -> (MpConfig, SmConfig) {
    let (arch, sim) = (ArchParams::default(), sim_config());
    (
        MpConfig::with_arch(arch, sim),
        SmConfig::with_arch(arch, sim),
    )
}

/// The engine configuration the runs use (part of the run-cache key).
pub fn sim_config() -> SimConfig {
    SimConfig::default()
}

/// Runs one simulation of `program` on `inputs`.
pub fn simulate(program: Program, inputs: &Inputs) -> Result<AppRun, SimError> {
    let (mp, sm) = configs();
    match program {
        Program::Em3dSm => em3d::sm::try_run(&inputs.em3d, sm),
        Program::GaussSm => gauss::sm::try_run(&inputs.gauss, sm),
        Program::Em3dMp => em3d::mp::try_run(&inputs.em3d, mp),
        Program::GaussMp => gauss::mp::try_run(&inputs.gauss, mp, TreeShape::Lopsided),
        Program::MseMp => mse::mp::try_run(&inputs.mse, mp),
        Program::MseSm => mse::sm::try_run(&inputs.mse, sm),
    }
}

/// The paper-style tables of one run: the whole-program breakdown and
/// event table, plus the initialization and main-loop split for runs
/// that record those phases (EM3D).
pub fn tables(program: Program, run: &AppRun) -> (Vec<BreakdownTable>, Vec<EventTable>) {
    let sm = program.shared_memory();
    let nprocs = run.report.nprocs();
    let breakdown = |title: &str, m: &CycleMatrix| {
        if sm {
            breakdown_sm(title, m)
        } else {
            breakdown_mp(title, m, "Communication")
        }
    };
    let events = |title: &str, m: &CycleMatrix, c: &Counters| {
        if sm {
            events_sm(title, m, c, nprocs)
        } else {
            events_mp(title, m, c, nprocs)
        }
    };
    let name = program.name();
    let avg = run.report.avg_matrix();
    let totals = run.report.counters_merged();
    let mut bt = vec![breakdown(name, &avg)];
    let mut et = vec![events(name, &avg, &totals)];
    if let (Some(init), Some(main)) = (run.phase("init"), run.phase("main")) {
        let zero = vec![Default::default(); init.snapshot.len()];
        for (phase, (m, c)) in [
            ("init", phase_delta(&init.snapshot, &zero)),
            ("main", phase_delta(&main.snapshot, &init.snapshot)),
        ] {
            let title = format!("{name} {phase}");
            bt.push(breakdown(&title, &m));
            et.push(events(&title, &m, &c));
        }
    }
    (bt, et)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_inputs() {
        assert_eq!(inputs(7), inputs(7));
    }

    #[test]
    fn seed_varies_seeded_inputs_only() {
        let (a, b) = (inputs(1), inputs(2));
        assert_ne!(a.em3d.seed, b.em3d.seed);
        assert_ne!(a.gauss.seed, b.gauss.seed);
        assert_eq!(a.mse, b.mse, "MSE has no seed");
        let strip = |i: &Inputs| {
            (
                em3d::Em3dParams {
                    seed: 0,
                    ..i.em3d.clone()
                },
                gauss::GaussParams {
                    seed: 0,
                    ..i.gauss.clone()
                },
            )
        };
        assert_eq!(strip(&a), strip(&b), "only the seeds differ");
    }

    #[test]
    fn em3d_keeps_the_paper_footprint() {
        let p = inputs(0).em3d;
        let paper = em3d::Em3dParams::default();
        assert_eq!(
            (
                p.e_per_proc,
                p.h_per_proc,
                p.degree,
                p.remote_pct,
                p.span,
                p.procs
            ),
            (
                paper.e_per_proc,
                paper.h_per_proc,
                paper.degree,
                paper.remote_pct,
                paper.span,
                paper.procs
            )
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
