//! Tier-1 golden for MSE, the computation-bound pair. The rendered
//! test-scale report of MSE-MP and MSE-SM and a hash of each run's
//! solution vector (its f64 bit patterns) must match the committed
//! golden exactly, so a change to the MSE kernel or to its host-side data
//! layout that moves a single bit of the simulated output fails here.
//!
//! On a mismatch the test writes the actual output into the system temp
//! directory and names the file; if the change is intended, copy it over
//! `tests/golden/mse_test_scale.txt` and explain the move.

use wwt::store::fnv1a;
use wwt::{render_report, run_experiment, run_grid, Experiment, RunnerConfig, Scale};

const GOLDEN: &str = include_str!("golden/mse_test_scale.txt");

const MSE: [Experiment; 2] = [Experiment::MseMp, Experiment::MseSm];

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
        &run_grid(&MSE, &RunnerConfig::new(Scale::Test)),
        Scale::Test,
    );
    out.push('\n');
    for e in MSE {
        let z = run_experiment(e, Scale::Test).run.artifact;
        out += &format!(
            "{e} solution: {} values, fnv1a {:016x}\n",
            z.len(),
            bits_digest(&z)
        );
    }
    out
}

#[test]
fn mse_report_and_solution_bits_match_the_golden() {
    let actual = render();
    if actual != GOLDEN {
        let path = std::env::temp_dir().join("mse_test_scale.actual.txt");
        let _ = std::fs::write(&path, &actual);
        panic!(
            "MSE test-scale output drifted from tests/golden/mse_test_scale.txt; \
             actual output written to {}",
            path.display()
        );
    }
}
