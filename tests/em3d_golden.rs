//! Tier-1 golden for EM3D, the paper's centrepiece workload. The rendered
//! test-scale report of EM3D-MP, EM3D-SM and the SM `Flush` and
//! `Prefetch` hint variants, plus a hash of each run's final E values
//! (their f64 bits), must match the committed golden exactly. A change to
//! how EM3D's graph, edge lists or communication plans are built on the
//! host that moves a single simulated cycle, event or value bit fails
//! here.
//!
//! On a mismatch the test writes the actual output into the system temp
//! directory and names the file; if the change is intended, copy it over
//! `tests/golden/em3d_test_scale.txt` and explain the move.

use wwt::store::fnv1a;
use wwt::{render_report, run_experiment, run_grid, Experiment, RunnerConfig, Scale};

const GOLDEN: &str = include_str!("golden/em3d_test_scale.txt");

const EM3D: [Experiment; 4] = [
    Experiment::Em3dMp,
    Experiment::Em3dSm,
    Experiment::Em3dSmFlush,
    Experiment::Em3dSmPrefetch,
];

/// FNV-1a over the little-endian bit patterns of `values`.
fn bits_digest(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn render() -> String {
    let mut out = render_report(
        &run_grid(&EM3D, &RunnerConfig::new(Scale::Test)),
        Scale::Test,
    );
    out.push('\n');
    for e in EM3D {
        let values = run_experiment(e, Scale::Test).run.artifact;
        out += &format!(
            "{e} final E values: {} values, fnv1a {:016x}\n",
            values.len(),
            bits_digest(&values)
        );
    }
    out
}

#[test]
fn em3d_report_and_value_bits_match_the_golden() {
    let actual = render();
    if actual != GOLDEN {
        let path = std::env::temp_dir().join("em3d_test_scale.actual.txt");
        let _ = std::fs::write(&path, &actual);
        panic!(
            "EM3D test-scale output drifted from tests/golden/em3d_test_scale.txt; \
             actual output written to {}",
            path.display()
        );
    }
}
