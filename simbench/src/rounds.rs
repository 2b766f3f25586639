//! Rounds: one simulation of each of a workload's programs, checked,
//! digested and timed; and the traced round's artifact round trip through
//! the run cache and the store.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use wwt_core::apps::AppRun;
use wwt_core::arch::ArchParams;
use wwt_core::cache;
use wwt_core::sim::{Counter, Counters, CycleMatrix, Kind, Scope};
use wwt_core::store::{fnv1a, Store};
use wwt_core::table::{BreakdownTable, EventTable};
use wwt_core::{ExperimentArtifacts, ExperimentOutput, Scale};

use crate::trace::Tracer;
use crate::workload::{self, Inputs, Program, Workload};

/// Simulated totals of one round, summed over its simulations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundStats {
    /// Engine events processed.
    pub events: u64,
    /// Simulated target cycles (each simulation's elapsed time).
    pub cycles: u64,
    /// Event counters summed over every processor.
    pub counters: Counters,
    /// Cycle charges summed over every processor.
    pub matrix: CycleMatrix,
}

/// One simulation's output, kept for the traced artifact round trip.
pub struct Simulated {
    /// Which program ran.
    pub program: Program,
    /// The run.
    pub run: AppRun,
    /// Its breakdown tables.
    pub tables: Vec<BreakdownTable>,
    /// Its event tables.
    pub events: Vec<EventTable>,
}

/// What one round produced.
pub struct Round {
    /// Host seconds for the whole round: simulations, tables, checks.
    pub secs: f64,
    /// Simulations attempted.
    pub sims: usize,
    /// Simulations that returned a `SimError` or failed validation.
    pub failed: usize,
    /// Digest of every table and counter, if no simulation failed.
    pub digest: Option<u64>,
    /// Simulated totals.
    pub stats: RoundStats,
    /// Traced rounds only: seconds inside each `try_run`.
    pub simulate_secs: Vec<f64>,
    /// Traced rounds only: seconds building each simulation's tables.
    pub tables_secs: Vec<f64>,
    /// Traced rounds only: the simulations, for the artifact round trip.
    pub outputs: Vec<Simulated>,
    /// Failure messages, for the report.
    pub errors: Vec<String>,
}

/// Appends a canonical text form of one simulation's results to `out`:
/// validation, clocks, events, every counter and cycle cell, and every
/// table with floats as exact bit patterns.
fn digest_text(out: &mut String, program: Program, s: &Simulated) {
    let r = &s.run.report;
    let _ = writeln!(
        out,
        "{} {} {} events={}",
        program.name(),
        s.run.validation.passed,
        s.run.validation.detail,
        r.events_processed()
    );
    for p in r.procs() {
        let _ = write!(out, "{} ", p.clock);
    }
    out.push('\n');
    let totals = r.counters_merged();
    for c in Counter::ALL {
        let _ = write!(out, "{} ", totals.get(c));
    }
    out.push('\n');
    let sum = r.sum_matrix();
    for scope in Scope::ALL {
        for kind in Kind::ALL {
            let _ = write!(out, "{} ", sum.get(scope, kind));
        }
    }
    out.push('\n');
    for t in &s.tables {
        let _ = writeln!(out, "{} {:016x}", t.title, t.total.to_bits());
        for row in &t.rows {
            let _ = writeln!(
                out,
                " {} {} {:016x}",
                row.label,
                row.indent,
                row.cycles.to_bits()
            );
        }
    }
    for t in &s.events {
        let _ = writeln!(out, "{}", t.title);
        for (label, v) in &t.rows {
            let _ = writeln!(out, " {label} {:016x}", v.to_bits());
        }
    }
}

/// Runs one round of `workload` on `inputs`. While `tracer` is enabled,
/// records spans into it and keeps the simulations for
/// [`artifact_round_trip`].
pub fn run_round(workload: Workload, inputs: &Inputs, tracer: &mut Tracer) -> Round {
    let start = Instant::now();
    let round_span = tracer.enter("round");
    let mut round = Round {
        secs: 0.0,
        sims: 0,
        failed: 0,
        digest: None,
        stats: RoundStats::default(),
        simulate_secs: Vec::new(),
        tables_secs: Vec::new(),
        outputs: Vec::new(),
        errors: Vec::new(),
    };
    let mut text = String::new();
    for &program in workload.programs() {
        round.sims += 1;
        let span = tracer.enter(format!("simulate:{}", program.name()));
        let result = workload::simulate(program, inputs);
        let simulate_s = tracer.exit(span);
        let run = match result {
            Ok(run) => run,
            Err(err) => {
                round.failed += 1;
                round.errors.push(format!("{}: {err}", program.name()));
                continue;
            }
        };
        let span = tracer.enter(format!("tables:{}", program.name()));
        let (tables, events) = workload::tables(program, &run);
        let tables_s = tracer.exit(span);
        if !run.validation.passed || tables.iter().any(|t| t.total.is_nan() || t.total <= 0.0) {
            round.failed += 1;
            round.errors.push(format!(
                "{}: validation failed: {}",
                program.name(),
                run.validation.detail
            ));
        }
        let stats = &mut round.stats;
        stats.events += run.report.events_processed();
        stats.cycles += run.report.elapsed();
        stats.counters.merge(&run.report.counters_merged());
        stats.matrix.merge(&run.report.sum_matrix());
        let sim = Simulated {
            program,
            run,
            tables,
            events,
        };
        let span = tracer.enter(format!("digest:{}", program.name()));
        digest_text(&mut text, program, &sim);
        tracer.exit(span);
        if tracer.enabled() {
            round.simulate_secs.extend(simulate_s);
            round.tables_secs.extend(tables_s);
            round.outputs.push(sim);
        }
    }
    if round.failed == 0 {
        round.digest = Some(fnv1a(text.as_bytes()));
    }
    tracer.exit(round_span);
    round.secs = start.elapsed().as_secs_f64();
    round
}

/// Host seconds of one simulation's trip through the run cache and the
/// store.
#[derive(Copy, Clone, Debug, Default)]
pub struct TripTimes {
    /// `cache::save` minus the store commit of the same payload.
    pub encode_s: f64,
    /// `cache::load` minus the store read of the same entry.
    pub decode_s: f64,
    /// `Store::commit` of the payload.
    pub commit_s: f64,
    /// `Store::read` of the entry.
    pub read_s: f64,
    /// Payload bytes.
    pub entry_bytes: usize,
}

impl TripTimes {
    /// Adds another trip's times and bytes to these.
    pub fn add(&mut self, o: &TripTimes) {
        self.encode_s += o.encode_s;
        self.decode_s += o.decode_s;
        self.commit_s += o.commit_s;
        self.read_s += o.read_s;
        self.entry_bytes += o.entry_bytes;
    }
}

/// Saves one simulation's artifacts through the run cache into `dir`,
/// reads the entry back through the store, commits the payload again
/// under another name, loads it through the run cache, and checks that
/// the loaded summary equals the saved one.
pub fn artifact_round_trip(
    dir: &Path,
    sim: Simulated,
    tracer: &mut Tracer,
) -> Result<TripTimes, String> {
    let program = sim.program;
    let experiment = program.experiment();
    let (simc, arch) = (workload::sim_config(), ArchParams::default());
    let summary = ExperimentOutput {
        experiment,
        scale: Scale::Test,
        run: sim.run,
        extra_runs: Vec::new(),
        tables: sim.tables,
        events: sim.events,
    }
    .summary();
    let artifacts = ExperimentArtifacts {
        experiment,
        summary,
        timeline: None,
        phases: None,
        wall_secs: 0.0,
        from_cache: false,
    };
    let outer = tracer.enter(format!("artifacts:{}", program.name()));
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", program.name());
    let timed = |tracer: &mut Tracer, name: &str, f: &mut dyn FnMut() -> Result<(), String>| {
        let t = Instant::now();
        let span = tracer.enter(name);
        let r = f();
        tracer.exit(span);
        r.map(|()| t.elapsed().as_secs_f64())
    };
    let store = Store::open(dir);
    let name = cache::entry_name(experiment, Scale::Test, &simc, &arch);
    let save_s = timed(tracer, "cache.save", &mut || {
        cache::save(dir, &artifacts, &simc, &arch).map_err(|e| fail("cache save", &e))
    })?;
    let mut payload = Vec::new();
    let read_s = timed(tracer, "store.read", &mut || {
        payload = store.read(&name).map_err(|e| fail("store read", &e))?;
        Ok(())
    })?;
    let commit_s = timed(tracer, "store.commit", &mut || {
        store
            .commit(&format!("{name}.copy"), &payload)
            .map_err(|e| fail("store commit", &e))
    })?;
    let mut loaded = None;
    let load_s = timed(tracer, "cache.load", &mut || {
        loaded = cache::load(dir, experiment, Scale::Test, &simc, &arch);
        Ok(())
    })?;
    tracer.exit(outer);
    match loaded {
        Some(back) if back.summary == artifacts.summary => Ok(TripTimes {
            encode_s: save_s - commit_s,
            decode_s: load_s - read_s,
            commit_s,
            read_s,
            entry_bytes: payload.len(),
        }),
        Some(_) => Err(format!(
            "{}: the run cache changed the summary",
            program.name()
        )),
        None => Err(format!("{}: the run cache lost the entry", program.name())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_core::apps::{em3d, gauss, mse};

    /// Small inputs with the given seeds, so a round takes milliseconds.
    fn small(seed: u64) -> Inputs {
        Inputs {
            em3d: em3d::Em3dParams {
                seed,
                ..em3d::Em3dParams::small()
            },
            gauss: gauss::GaussParams {
                seed,
                ..gauss::GaussParams::small()
            },
            mse: mse::MseParams::small(),
        }
    }

    #[test]
    fn repeating_inputs_repeats_the_digest() {
        let mut tracer = Tracer::new(true);
        for w in Workload::ALL {
            tracer.set_enabled(true);
            let a = run_round(w, &small(1), &mut tracer);
            tracer.set_enabled(false);
            let b = run_round(w, &small(1), &mut tracer);
            assert_eq!((a.sims, a.failed), (2, 0), "{}: {:?}", w.name(), a.errors);
            assert!(a.digest.is_some());
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert_eq!(a.stats, b.stats, "{}", w.name());
            assert_eq!(
                a.simulate_secs.len(),
                2,
                "traced rounds time each simulation"
            );
            assert!(
                b.simulate_secs.is_empty(),
                "untraced rounds record no spans"
            );
        }
    }

    #[test]
    fn the_seed_changes_the_digest_of_seeded_workloads() {
        let mut tracer = Tracer::new(false);
        for w in [Workload::SmCoherence, Workload::MpMessaging] {
            let a = run_round(w, &small(1), &mut tracer);
            let b = run_round(w, &small(2), &mut tracer);
            assert_ne!(a.digest, b.digest, "{}", w.name());
        }
    }

    #[test]
    fn artifacts_survive_the_run_cache_and_the_store() {
        let dir = std::env::temp_dir().join(format!("simbench-test-{}", std::process::id()));
        let mut tracer = Tracer::new(true);
        let round = run_round(Workload::MpMessaging, &small(3), &mut tracer);
        for sim in round.outputs {
            let t = artifact_round_trip(&dir, sim, &mut tracer).expect("round trip");
            assert!(t.entry_bytes > 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
