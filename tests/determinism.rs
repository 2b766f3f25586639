//! The engine is a deterministic discrete-event simulator: the same
//! program and seed must produce bit-identical measurements — the
//! property the Wisconsin Wind Tunnel relied on for reproducible
//! experiments.

use proptest::prelude::*;

use wwt::sim::Counter;
use wwt::{render_report, run_experiment, run_grid, Experiment, RunnerConfig, Scale};

fn fingerprint(e: Experiment) -> (u64, u64, u64, String) {
    let out = run_experiment(e, Scale::Test);
    let r = &out.run.report;
    (
        r.elapsed(),
        r.events_processed(),
        r.total_counter(Counter::BytesData) + r.total_counter(Counter::BytesControl),
        out.run.validation.detail.clone(),
    )
}

#[test]
fn every_experiment_is_reproducible() {
    for e in [
        Experiment::MseMp,
        Experiment::MseSm,
        Experiment::GaussMp,
        Experiment::GaussSm,
        Experiment::Em3dMp,
        Experiment::Em3dSm,
        Experiment::LcpMp,
        Experiment::LcpSm,
        Experiment::AlcpMp,
        Experiment::AlcpSm,
    ] {
        assert_eq!(fingerprint(e), fingerprint(e), "{e} not reproducible");
    }
}

#[test]
fn per_processor_breakdowns_are_reproducible() {
    let a = run_experiment(Experiment::Em3dSm, Scale::Test);
    let b = run_experiment(Experiment::Em3dSm, Scale::Test);
    for (pa, pb) in a.run.report.procs().zip(b.run.report.procs()) {
        assert_eq!(pa.clock, pb.clock);
        assert_eq!(pa.matrix, pb.matrix);
        assert_eq!(pa.counters, pb.counters);
    }
}

/// The whole rendered grid report — tables, events, validation, headline
/// checks — is reproducible, not just the per-experiment fingerprints.
#[test]
fn grid_report_is_reproducible() {
    let es = [
        Experiment::GaussMp,
        Experiment::GaussSm,
        Experiment::Em3dMp,
        Experiment::Em3dSm,
        Experiment::LcpSm,
        Experiment::MseMp,
    ];
    let report = || render_report(&run_grid(&es, &RunnerConfig::new(Scale::Test)), Scale::Test);
    assert_eq!(report(), report());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// WWT's conservative discipline, property-tested: for the threaded
    /// parallel engine, any quantum in `1..=lookahead` combined with any
    /// shard count reproduces the sequential baseline's per-processor
    /// measurements exactly (clocks, counts, and the order-sensitive
    /// delivery checksum).
    #[test]
    fn any_quantum_and_shard_count_reproduce_the_baseline(
        quantum in 1u64..101,
        shards in 1usize..9,
        nprocs in 1usize..10,
    ) {
        use wwt::sim::parallel::workloads::install_ring;
        use wwt::sim::{ParConfig, ParEngine};

        let run = |shards: usize, quantum: u64| {
            let cfg = ParConfig { shards, quantum, ..ParConfig::default() };
            let mut eng = ParEngine::new(nprocs, cfg);
            install_ring(&mut eng, nprocs, 5, 250);
            eng.run()
        };
        let base = run(1, 100);
        prop_assert!(base.delivered() > 0);
        prop_assert_eq!(&base, &run(shards, quantum));
    }
}

/// Golden-trace determinism: two traced runs of the same experiment must
/// serialize to byte-identical Perfetto and metrics JSON.
#[cfg(feature = "trace-json")]
#[test]
fn traced_runs_export_byte_identical_json() {
    use wwt::run_experiment_with;
    use wwt::sim::SimConfig;
    use wwt::trace::{chrome_trace_json, metrics_json};

    let traced = || {
        let sim = SimConfig {
            trace: true,
            ..SimConfig::default()
        };
        let out = run_experiment_with(Experiment::Em3dMp, Scale::Test, sim);
        let report = &out.run.report;
        let data = report.trace().expect("tracing was enabled");
        assert!(!data.events.is_empty(), "a traced EM3D run records events");
        (
            chrome_trace_json(report).unwrap(),
            metrics_json(&data.metrics),
        )
    };
    let (trace_a, metrics_a) = traced();
    let (trace_b, metrics_b) = traced();
    assert!(trace_a == trace_b, "trace JSON must be byte-identical");
    assert!(
        metrics_a == metrics_b,
        "metrics JSON must be byte-identical"
    );
}
