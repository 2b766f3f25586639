//! Deterministic fault injection: chaos runs complete and validate, the
//! cycle accounting still balances with the `retry` category, identical
//! fault seeds replay byte-identically at any job count, and an inert
//! fault plan (all probabilities zero) is invisible in the output.

use proptest::prelude::*;

use wwt::sim::FaultConfig;
use wwt::{render_report, run_grid, Experiment, RunnerConfig, Scale};

fn cfg(jobs: usize, faults: Option<FaultConfig>) -> RunnerConfig {
    RunnerConfig {
        jobs,
        faults,
        ..RunnerConfig::new(Scale::Test)
    }
}

fn chaos(spec: &str) -> FaultConfig {
    FaultConfig::parse(spec).expect("valid fault spec")
}

/// Both machine models and every communication style in the registry.
const SUBSET: [Experiment; 6] = [
    Experiment::GaussMp,
    Experiment::GaussSm,
    Experiment::Em3dMp,
    Experiment::Em3dSm,
    Experiment::LcpMp,
    Experiment::MseMp,
];

#[test]
fn every_experiment_completes_and_validates_under_packet_loss() {
    let faults = chaos("seed=1,drop=0.01,dup=0.002,reorder=0.005,jitter=300");
    let arts = run_grid(&Experiment::ALL, &cfg(2, Some(faults)));
    assert_eq!(arts.len(), Experiment::ALL.len());
    for a in &arts {
        assert!(
            a.summary.validation_passed,
            "{} failed validation under faults: {}",
            a.experiment.id(),
            a.summary.validation_detail
        );
        // The breakdown must still balance: top-level rows (including the
        // fault-only `Retries` contribution inside the communication
        // group) account for every cycle.
        for t in &a.summary.tables {
            let top: f64 = t
                .rows
                .iter()
                .filter(|r| r.indent == 0)
                .map(|r| r.cycles)
                .sum();
            let err = (top - t.total).abs();
            assert!(
                err <= 1e-6 * t.total.max(1.0),
                "{}: top-level rows sum to {top}, table total is {}",
                t.title,
                t.total
            );
        }
    }
}

#[test]
fn mp_runs_with_drops_record_retransmissions() {
    let faults = chaos("seed=3,drop=0.02");
    let arts = run_grid(&[Experiment::Em3dMp], &cfg(1, Some(faults)));
    let events = &arts[0].summary.events[0];
    let retx = events.row("Retransmits").unwrap_or(0.0);
    assert!(
        retx > 0.0,
        "2% packet loss must force at least one retransmission"
    );
    assert!(events.row("Acks sent").unwrap_or(0.0) > 0.0);
    let retries = arts[0].summary.tables[0].row("Retries");
    assert!(
        retries.unwrap_or(0.0) > 0.0,
        "recovery cycles must appear in the breakdown's Retries row"
    );
}

#[test]
fn same_fault_seed_replays_byte_identically_across_jobs_and_repeats() {
    let faults = chaos("seed=7,drop=0.01,dup=0.001,reorder=0.002");
    let once = render_report(&run_grid(&SUBSET, &cfg(1, Some(faults))), Scale::Test);
    let again = render_report(&run_grid(&SUBSET, &cfg(1, Some(faults))), Scale::Test);
    let wide = render_report(&run_grid(&SUBSET, &cfg(4, Some(faults))), Scale::Test);
    assert_eq!(once, again, "repeat with the same seed must be identical");
    assert_eq!(once, wide, "job count must not leak into faulted output");
}

#[test]
fn jittered_faulted_results_are_reproducible() {
    // Jitter pushes deliveries and retransmit timers across calendar
    // windows; the fault RNG draws are keyed to packets, not to
    // scheduling, so the faulted report replays byte-identically.
    let faults = chaos("seed=7,drop=0.01,dup=0.001,reorder=0.002,jitter=150");
    let report = || render_report(&run_grid(&SUBSET, &cfg(1, Some(faults))), Scale::Test);
    assert_eq!(report(), report(), "jittered faulted output changed");
}

#[test]
fn a_dead_node_fails_its_experiment_but_not_the_grid() {
    // Processor 0 never delivers for the entire run, so the MP machine
    // retransmits forever until the progress watchdog calls it a
    // livelock. The grid must surface that as a structured engine
    // failure on the affected experiment — naming the stalled
    // processors — while the shared-memory experiment in the same grid
    // still completes and validates, and the whole run stays
    // deterministic.
    let faults = chaos("seed=5,fail=0@0..100000000");
    let es = [Experiment::Em3dMp, Experiment::GaussSm];
    let arts = run_grid(&es, &cfg(2, Some(faults)));
    assert_eq!(arts.len(), 2);
    let (mp, sm) = (&arts[0], &arts[1]);

    assert!(
        mp.summary.engine_failed(),
        "a permanently dead node must stall the MP run, got: {}",
        mp.summary.validation_detail
    );
    assert!(!mp.summary.validation_passed);
    assert!(
        mp.summary.validation_detail.contains("livelock"),
        "watchdog expiry should be reported as a livelock: {}",
        mp.summary.validation_detail
    );
    assert!(
        mp.summary.tables.is_empty(),
        "a failed run has no breakdown tables"
    );

    assert!(
        sm.summary.validation_passed,
        "the SM experiment must finish despite its grid-mate failing: {}",
        sm.summary.validation_detail
    );
    assert!(!sm.summary.engine_failed());

    // The rendered report carries the structured failure verbatim and is
    // byte-identical between sequential and parallel grid runs.
    let report = render_report(&arts, Scale::Test);
    assert!(report.contains("validation: FAIL — engine failure: livelock"));
    let seq = render_report(&run_grid(&es, &cfg(1, Some(faults))), Scale::Test);
    assert_eq!(report, seq);
}

#[test]
fn different_fault_seeds_differ() {
    let a = render_report(
        &run_grid(
            &[Experiment::Em3dMp],
            &cfg(1, Some(chaos("seed=1,drop=0.05"))),
        ),
        Scale::Test,
    );
    let b = render_report(
        &run_grid(
            &[Experiment::Em3dMp],
            &cfg(1, Some(chaos("seed=2,drop=0.05"))),
        ),
        Scale::Test,
    );
    assert_ne!(a, b, "5% loss under different seeds should not collide");
}

#[test]
fn zero_probability_plan_is_byte_identical_to_no_faults() {
    // An explicit plan whose probabilities are all zero must not perturb
    // the simulation at all: no sequence numbers, no ACKs, no RNG draws.
    let inert = chaos("seed=9");
    let plain = render_report(&run_grid(&SUBSET, &cfg(2, None)), Scale::Test);
    let faulted = render_report(&run_grid(&SUBSET, &cfg(2, Some(inert))), Scale::Test);
    assert_eq!(plain, faulted);
}

#[test]
fn slow_window_stretches_the_victims_computation() {
    let base = run_grid(&[Experiment::GaussMp], &cfg(1, None));
    // Processor 0 computes 4x slower for a long prefix of the run.
    let slow = chaos("seed=1,slow=0@0..100000000x4");
    let slowed = run_grid(&[Experiment::GaussMp], &cfg(1, Some(slow)));
    assert!(slowed[0].summary.validation_passed);
    let total = |a: &wwt::ExperimentArtifacts| a.summary.tables[0].total;
    assert!(
        total(&slowed[0]) > total(&base[0]),
        "a slowed processor must lengthen the run ({} vs {})",
        total(&slowed[0]),
        total(&base[0])
    );
}

/// Span/matrix reconciliation must survive fault injection: retry cycles
/// charged from network callbacks land inside the open span of the
/// suspended processor, exactly like the matrix charge.
#[cfg(feature = "trace-json")]
#[test]
fn faulted_traced_run_reconciles_spans_with_the_matrix() {
    use wwt::sim::SimConfig;
    use wwt::trace::check_against_matrix;

    let sim = SimConfig {
        trace: true,
        faults: Some(chaos("seed=11,drop=0.02,dup=0.002")),
        watchdog: Some(10_000_000),
        ..SimConfig::default()
    };
    let out = wwt::run_experiment_with(Experiment::Em3dMp, Scale::Test, sim);
    assert!(out.run.validation.passed);
    check_against_matrix(&out.run.report)
        .unwrap_or_else(|errs| panic!("trace/matrix mismatch under faults:\n{}", errs.join("\n")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For arbitrary seeds and loss rates, a faulted grid is (a) complete
    /// and validated and (b) byte-identical between a sequential and a
    /// parallel run of the same plan.
    #[test]
    fn faulted_runs_are_deterministic_for_any_seed(
        seed in 0u64..1_000_000,
        drop_pct in 0u32..3,
    ) {
        let faults = chaos(&format!("seed={seed},drop=0.0{drop_pct}"));
        let es = [Experiment::GaussMp, Experiment::Em3dMp];
        let seq = run_grid(&es, &cfg(1, Some(faults)));
        let par = run_grid(&es, &cfg(2, Some(faults)));
        for a in seq.iter().chain(par.iter()) {
            prop_assert!(a.summary.validation_passed, "{} failed", a.experiment.id());
        }
        prop_assert_eq!(
            render_report(&seq, Scale::Test),
            render_report(&par, Scale::Test)
        );
    }
}
