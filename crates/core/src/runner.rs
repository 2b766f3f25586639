//! The experiment grid runner: run-once artifact derivation, experiment-
//! level parallelism, and a persistent run cache.
//!
//! Reproducing the paper means running an 18-experiment grid, and every
//! downstream consumer — the breakdown report, the activity timelines,
//! the Perfetto trace, the latency histograms, the JSON export — used to
//! re-simulate the experiment from scratch. This module fixes all three
//! costs at once:
//!
//! * **Run-once reuse.** [`run_grid`] simulates each selected experiment
//!   exactly once, with the *union* [`wwt_sim::SimConfig`] of everything
//!   requested (time-resolved profiling for timelines, structured tracing
//!   for exports), and derives every artifact from that single
//!   [`ExperimentOutput`](crate::ExperimentOutput).
//! * **Grid fan-out.** The engine is deliberately single-threaded
//!   (`Rc`/`RefCell` target tasks), so parallelism lives at the
//!   experiment level: [`RunnerConfig::jobs`] workers pull experiments
//!   from a shared queue and results are re-assembled in registry order.
//!   Because each simulation is deterministic and rendering happens from
//!   per-experiment summaries, the rendered report is **byte-identical
//!   regardless of job count**.
//! * **Run caching.** With [`RunnerConfig::cache_dir`] set, each
//!   experiment's artifacts persist keyed by (experiment, scale, engine
//!   config hash); a repeated invocation with an unchanged configuration
//!   replays from disk without simulating. See [`crate::cache`].
//!
//! Wall-clock timing per experiment is reported in
//! [`ExperimentArtifacts::wall_secs`] so callers can surface grid timing
//! (e.g. `make_tables`' `BENCH_grid.json`) without touching the
//! deterministic report text.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use wwt_arch::ArchParams;

use crate::cache;
use crate::experiment::{
    try_run_experiment_with_arch, Experiment, ExperimentSummary, Scale, ENGINE_FAILURE_PREFIX,
};
use crate::paper::{headline_checks, paper_reference};
use crate::timeline::render_timeline;

/// How [`run_grid`] executes a set of experiments.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Workload scale for every experiment.
    pub scale: Scale,
    /// Worker threads. `1` runs sequentially; values are clamped to the
    /// number of selected experiments.
    pub jobs: usize,
    /// Render a per-processor activity timeline for every experiment
    /// (enables time-resolved profiling in the engine).
    pub timeline: bool,
    /// Produce trace artifacts (Perfetto JSON, latency histograms, result
    /// JSON) for every experiment. Requires the `trace-json` feature; the
    /// flag is ignored without it.
    pub trace: bool,
    /// When set, persist and reuse per-experiment artifacts under this
    /// directory (created on demand).
    pub cache_dir: Option<PathBuf>,
    /// Deterministic fault-injection plan, applied to every experiment.
    /// Participates in the run-cache key (through the engine
    /// configuration), so faulted and fault-free artifacts never mix.
    pub faults: Option<wwt_sim::FaultConfig>,
    /// The hardware base every experiment runs on (the paper's Table-1
    /// machine by default). Participates in the run-cache key, so
    /// different architecture points never mix.
    pub arch: ArchParams,
    /// Record phase marks at barriers/collectives and derive a
    /// [`wwt_diff::RunProfile`] per experiment (the `--diff` input).
    /// Participates in the run-cache key through the engine
    /// configuration.
    pub phases: bool,
    /// How many times a transiently-failed job (watchdog expiry — the
    /// stall class that can clear on a re-run) is re-attempted before its
    /// cell is reported failed. Deterministic failures (deadlock, config
    /// errors, panics) are never retried.
    pub retries: u32,
    /// Backoff before the first retry, doubling per attempt. Milliseconds.
    pub retry_backoff_ms: u64,
}

impl RunnerConfig {
    /// A sequential, artifact-free, uncached configuration — exactly what
    /// the plain breakdown report needs.
    pub fn new(scale: Scale) -> Self {
        RunnerConfig {
            scale,
            jobs: 1,
            timeline: false,
            trace: false,
            cache_dir: None,
            faults: None,
            arch: ArchParams::default(),
            phases: false,
            retries: 2,
            retry_backoff_ms: 50,
        }
    }

    /// The union engine configuration: one simulation that can feed every
    /// requested artifact.
    pub(crate) fn sim_config(&self) -> wwt_sim::SimConfig {
        wwt_sim::SimConfig {
            profile_bucket: self.timeline.then(|| timeline_bucket(self.scale)),
            trace: self.trace && cfg!(feature = "trace-json"),
            phase_marks: self.phases,
            faults: self.faults,
            // Faulted runs can stall in ways fault-free runs cannot
            // (e.g. a permanent fail window silences one node), so give
            // them a progress watchdog instead of an open-ended hang.
            watchdog: self.faults.is_some().then_some(10_000_000),
            ..wwt_sim::SimConfig::default()
        }
    }
}

/// The profile bucket used for timeline rendering: a few hundred samples
/// at either scale.
pub fn timeline_bucket(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 200_000,
        Scale::Test => 2_000,
    }
}

/// Trace-derived artifacts of one experiment run (the `--trace`,
/// `--metrics`, and `--json` outputs of `make_tables`).
#[cfg(feature = "trace-json")]
#[derive(Clone, Debug, PartialEq)]
pub struct TraceArtifacts {
    /// Chrome trace-event / Perfetto JSON.
    pub perfetto: String,
    /// Latency histograms as JSON.
    pub metrics_json: String,
    /// Latency histograms as an ASCII table.
    pub metrics_table: String,
    /// The experiment result (tables, validation, summary) as JSON.
    pub experiment_json: String,
}

/// Everything one experiment contributes to a grid run: the reportable
/// summary plus any requested rendered artifacts, all derived from a
/// single simulation (or replayed from the run cache).
#[derive(Clone, Debug)]
pub struct ExperimentArtifacts {
    /// Which experiment.
    pub experiment: Experiment,
    /// The reportable projection of the run.
    pub summary: ExperimentSummary,
    /// The rendered timeline section, when requested.
    pub timeline: Option<String>,
    /// Trace exports, when requested.
    #[cfg(feature = "trace-json")]
    pub trace: Option<TraceArtifacts>,
    /// The phase-structured run profile (the `--diff` input), when
    /// requested via [`RunnerConfig::phases`].
    pub phases: Option<wwt_diff::RunProfile>,
    /// Wall-clock seconds this invocation spent producing the artifacts
    /// (near zero on a cache hit).
    pub wall_secs: f64,
    /// Whether the artifacts were replayed from the run cache.
    pub from_cache: bool,
}

/// Does a (possibly cached) artifact set cover everything `cfg` asks for?
fn covers(a: &ExperimentArtifacts, cfg: &RunnerConfig) -> bool {
    if cfg.timeline && a.timeline.is_none() {
        return false;
    }
    #[cfg(feature = "trace-json")]
    if cfg.trace && a.trace.is_none() {
        return false;
    }
    if cfg.phases && a.phases.is_none() {
        return false;
    }
    true
}

/// Runs one experiment and derives every requested artifact from the
/// single simulation, consulting the cache first. The job boundary is
/// where the grid's resilience lives: a panicking experiment is caught
/// and reported as a failed cell (never a dead grid), and transient
/// failures are re-attempted with exponential backoff.
fn run_one(e: Experiment, cfg: &RunnerConfig) -> ExperimentArtifacts {
    let start = Instant::now();
    wwt_obs::job_enter();
    let (mut art, mut transient) = run_one_caught(e, cfg, start);
    let mut attempt = 0;
    while transient && attempt < cfg.retries {
        attempt += 1;
        wwt_obs::count_always(wwt_obs::Ctr::GridJobRetries, 1);
        eprintln!(
            "warning: {} failed transiently ({}); retry {attempt}/{}",
            e.id(),
            art.summary.validation_detail,
            cfg.retries
        );
        // Exponential backoff: transient stalls and IO hiccups often
        // share a cause with their neighbors (a loaded host); spreading
        // retries out beats hammering.
        std::thread::sleep(std::time::Duration::from_millis(
            cfg.retry_backoff_ms.saturating_mul(1 << (attempt - 1)),
        ));
        (art, transient) = run_one_caught(e, cfg, start);
    }
    wwt_obs::job_exit();
    wwt_obs::count_always(wwt_obs::Ctr::GridExperimentsRun, 1);
    if art.from_cache {
        wwt_obs::count_always(wwt_obs::Ctr::GridExperimentsCached, 1);
    }
    wwt_obs::record_wall_us(start.elapsed().as_micros() as u64);
    art
}

/// [`run_one_inner`] behind `catch_unwind`: a panic anywhere in the
/// simulation or artifact derivation becomes a failed cell. The closure
/// only touches `&`-captures and builds its state from scratch, so
/// `AssertUnwindSafe` is sound — nothing observable survives the unwind.
fn run_one_caught(
    e: Experiment,
    cfg: &RunnerConfig,
    start: Instant,
) -> (ExperimentArtifacts, bool) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_one_inner(e, cfg, start)
    })) {
        Ok(result) => result,
        Err(payload) => {
            wwt_obs::count_always(wwt_obs::Ctr::GridJobPanics, 1);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            // Panics are deterministic bugs, not transient weather:
            // report the cell failed, don't retry.
            (panic_artifacts(e, cfg, &msg, start), false)
        }
    }
}

/// Runs the job once. The second return value is whether a failure is
/// *transient* — worth retrying.
fn run_one_inner(e: Experiment, cfg: &RunnerConfig, start: Instant) -> (ExperimentArtifacts, bool) {
    // Test hook: panic inside the job for the named experiment, proving
    // the catch_unwind boundary turns panics into failed cells.
    if std::env::var("WWT_TEST_PANIC_EXPERIMENT").is_ok_and(|id| id == e.id()) {
        panic!("injected test panic in {}", e.id());
    }
    let sim = cfg.sim_config();
    let fixup = |mut hit: ExperimentArtifacts| {
        hit.wall_secs = start.elapsed().as_secs_f64();
        hit.from_cache = true;
        hit
    };
    // The lock guard must outlive the commit in `cache::save`, so it
    // lives at function scope.
    let _write_lock;
    if let Some(dir) = &cfg.cache_dir {
        if let Some(hit) =
            cache::load(dir, e, cfg.scale, &sim, &cfg.arch).filter(|hit| covers(hit, cfg))
        {
            return (fixup(hit), false);
        }
        // Miss: take the per-entry writer lock so concurrent runners
        // (worker threads or separate processes) simulate this point
        // once. Whoever loses the race blocks here, then replays the
        // winner's entry on the re-check below.
        let name = cache::entry_name(e, cfg.scale, &sim, &cfg.arch);
        _write_lock = wwt_store::Store::open(dir).lock(&name);
        if let Some(hit) =
            cache::load_recheck(dir, e, cfg.scale, &sim, &cfg.arch).filter(|hit| covers(hit, cfg))
        {
            return (fixup(hit), false);
        }
    }

    let out = match try_run_experiment_with_arch(e, cfg.scale, sim, cfg.arch) {
        Ok(out) => out,
        Err(err) => {
            // Watchdog expiry is the stall class that can clear on a
            // re-run (it is a bound on progress, not proof of a cycle);
            // deadlocks and config errors are deterministic.
            let transient = matches!(err, wwt_sim::SimError::Livelock { .. });
            return (failure_artifacts(e, cfg, &err, start), transient);
        }
    };
    let timeline = cfg.timeline.then(|| {
        let bucket = timeline_bucket(cfg.scale);
        let rendered = render_timeline(&out.run.report, bucket, 100)
            .expect("run was profiled, so a timeline must render");
        format!("\n### {} — timeline\n{}", e.id(), rendered)
    });
    #[cfg(feature = "trace-json")]
    let trace = (cfg.trace).then(|| {
        let report = &out.run.report;
        let data = report.trace().expect("tracing was enabled");
        TraceArtifacts {
            perfetto: wwt_trace::chrome_trace_json(report).expect("tracing was enabled"),
            metrics_json: wwt_trace::metrics_json(&data.metrics),
            metrics_table: wwt_trace::metrics_table(&data.metrics),
            experiment_json: crate::export::experiment_json(&out),
        }
    });
    let phases = cfg
        .phases
        .then(|| wwt_diff::RunProfile::from_report(&out.run.report));
    let art = ExperimentArtifacts {
        experiment: e,
        summary: out.summary(),
        timeline,
        #[cfg(feature = "trace-json")]
        trace,
        phases,
        wall_secs: start.elapsed().as_secs_f64(),
        from_cache: false,
    };
    if let Some(dir) = &cfg.cache_dir {
        // Best-effort: a full disk or read-only tree must not fail the
        // run. The write lock is still held here, so concurrent racers
        // observe either no entry or this complete commit.
        let _ = cache::save(dir, &art, &sim, &cfg.arch);
    }
    (art, false)
}

/// Artifacts for an experiment whose job panicked: the panic message
/// lands in `validation_detail` behind the engine-failure prefix, so the
/// failed cell flows through reporting (and `engine_failed()`) exactly
/// like a stalled simulation. Never cached, never retried.
fn panic_artifacts(
    e: Experiment,
    cfg: &RunnerConfig,
    msg: &str,
    start: Instant,
) -> ExperimentArtifacts {
    ExperimentArtifacts {
        experiment: e,
        summary: ExperimentSummary {
            experiment: e,
            scale: cfg.scale,
            validation_passed: false,
            validation_detail: format!("{ENGINE_FAILURE_PREFIX}panic: {msg}"),
            stats: Vec::new(),
            imbalance: 0.0,
            wait_fraction: 0.0,
            tables: Vec::new(),
            events: Vec::new(),
        },
        timeline: None,
        #[cfg(feature = "trace-json")]
        trace: None,
        phases: None,
        wall_secs: start.elapsed().as_secs_f64(),
        from_cache: false,
    }
}

/// Artifacts for an experiment whose simulation stalled (deadlock,
/// livelock, or watchdog expiry): the structured stall report lands in
/// `validation_detail` with `validation_passed = false`, so the grid can
/// finish the remaining experiments and the report shows exactly which
/// run failed and why. Failure artifacts are **never cached** — a retry
/// after a fix must re-simulate.
fn failure_artifacts(
    e: Experiment,
    cfg: &RunnerConfig,
    err: &wwt_sim::SimError,
    start: Instant,
) -> ExperimentArtifacts {
    ExperimentArtifacts {
        experiment: e,
        summary: ExperimentSummary {
            experiment: e,
            scale: cfg.scale,
            validation_passed: false,
            validation_detail: format!("{ENGINE_FAILURE_PREFIX}{err}"),
            stats: Vec::new(),
            imbalance: 0.0,
            wait_fraction: 0.0,
            tables: Vec::new(),
            events: Vec::new(),
        },
        timeline: None,
        #[cfg(feature = "trace-json")]
        trace: None,
        phases: None,
        wall_secs: start.elapsed().as_secs_f64(),
        from_cache: false,
    }
}

/// Runs every experiment in `experiments`, fanning out across
/// [`RunnerConfig::jobs`] worker threads, and returns the artifacts **in
/// input order** — the caller renders them without caring how the work
/// was scheduled.
pub fn run_grid(experiments: &[Experiment], cfg: &RunnerConfig) -> Vec<ExperimentArtifacts> {
    let jobs = cfg.jobs.clamp(1, experiments.len().max(1));
    let arts: Vec<ExperimentArtifacts> = if jobs == 1 {
        experiments.iter().map(|&e| run_one(e, cfg)).collect()
    } else {
        // The engine is single-threaded by design (Rc/RefCell target
        // tasks), so parallelize across experiments: a shared index is
        // the work queue, and each result lands in its input slot.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ExperimentArtifacts>>> =
            experiments.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&e) = experiments.get(i) else {
                        break;
                    };
                    let art = run_one(e, cfg);
                    *slots[i].lock().unwrap() = Some(art);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap()
                    .expect("every slot is filled before the scope joins")
            })
            .collect()
    };
    // Close the grid with a stderr summary of every cell that stayed
    // failed after retries — one place to look instead of scrolling back
    // through interleaved worker output. Stdout stays artifact-only.
    let failed: Vec<&ExperimentArtifacts> =
        arts.iter().filter(|a| a.summary.engine_failed()).collect();
    if !failed.is_empty() {
        eprintln!(
            "grid: {}/{} cells failed after {} retr{}:",
            failed.len(),
            arts.len(),
            cfg.retries,
            if cfg.retries == 1 { "y" } else { "ies" }
        );
        for a in &failed {
            eprintln!("  {}: {}", a.experiment.id(), a.summary.validation_detail);
        }
    }
    arts
}

/// Renders one experiment's report section (validation, stats, load
/// balance, and its breakdown and event tables).
pub fn render_section(s: &ExperimentSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n### {} ({})",
        s.experiment.id(),
        s.experiment.paper_tables()
    );
    let _ = writeln!(
        out,
        "validation: {} — {}",
        if s.validation_passed { "PASS" } else { "FAIL" },
        s.validation_detail
    );
    for (name, v) in &s.stats {
        let _ = writeln!(out, "stat: {name} = {v}");
    }
    let _ = writeln!(
        out,
        "load imbalance: {:.1}%; waiting: {:.0}% of all cycles",
        100.0 * s.imbalance,
        100.0 * s.wait_fraction
    );
    for t in &s.tables {
        let _ = writeln!(out, "\n{t}");
    }
    for t in &s.events {
        let _ = writeln!(out, "\n{t}");
    }
    out
}

/// Assembles the full grid report from per-experiment artifacts: the
/// measured sections in order, the paper's published values for the
/// experiments present, and the headline shape checks. Purely a function
/// of the summaries, so the text is identical whether the artifacts came
/// from one worker, many, or the run cache.
pub fn render_report(artifacts: &[ExperimentArtifacts], scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "WWT reproduction — {} scale\n{}",
        scale.name(),
        "=".repeat(70)
    );
    let mut results: HashMap<Experiment, ExperimentSummary> = HashMap::new();
    for a in artifacts {
        out.push_str(&render_section(&a.summary));
        results.insert(a.experiment, a.summary.clone());
    }

    let _ = writeln!(
        out,
        "\n{}\nPaper-published values (for comparison)\n{0}",
        "-".repeat(70)
    );
    for t in paper_reference() {
        if results.contains_key(&t.experiment) {
            let _ = writeln!(
                out,
                "\nPaper Table {}: {} (total {:.1}M)",
                t.number, t.title, t.total
            );
            for (label, v) in t.rows {
                let _ = writeln!(out, "  {label:<28} {v:>8.1}M {:>4.0}%", 100.0 * v / t.total);
            }
        }
    }

    let _ = writeln!(out, "\n{}\nHeadline shape checks\n{0}", "-".repeat(70));
    let checks = headline_checks(&results);
    let passed = checks.iter().filter(|c| c.pass).count();
    for c in &checks {
        let _ = writeln!(out, "\n{c}");
    }
    let _ = writeln!(out, "\n{passed}/{} headline checks pass", checks.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_grid_renders_sections_in_input_order() {
        let cfg = RunnerConfig::new(Scale::Test);
        let es = [Experiment::GaussSm, Experiment::GaussMp];
        let arts = run_grid(&es, &cfg);
        assert_eq!(arts.len(), 2);
        assert_eq!(arts[0].experiment, Experiment::GaussSm);
        assert_eq!(arts[1].experiment, Experiment::GaussMp);
        let report = render_report(&arts, Scale::Test);
        let sm = report.find("### gauss-sm").unwrap();
        let mp = report.find("### gauss-mp").unwrap();
        assert!(sm < mp, "sections must follow input order");
    }

    #[test]
    fn timeline_artifacts_only_appear_when_requested() {
        let mut cfg = RunnerConfig::new(Scale::Test);
        let arts = run_grid(&[Experiment::LcpMp], &cfg);
        assert!(arts[0].timeline.is_none());
        cfg.timeline = true;
        let arts = run_grid(&[Experiment::LcpMp], &cfg);
        let t = arts[0].timeline.as_deref().unwrap();
        assert!(t.contains("### lcp-mp — timeline"));
        assert!(t.contains('|'));
    }
}
