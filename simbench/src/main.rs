//! `simbench`: the simulator's end-to-end and per-layer host-performance
//! benchmark. `README.md` beside this package explains the workloads and
//! every metric.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.

mod output;
mod probes;
mod rounds;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use wwt_core::obs::{self, Ctr};
use wwt_core::sim::{Counter, Kind};

use output::{metric, name_part, ratio, result_json, Metric};
use rounds::{artifact_round_trip, run_round, Round, RoundStats, TripTimes};
use stats::{median, tail};
use trace::Tracer;
use workload::{Inputs, Workload};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Times the benchmark sets up per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The command line, checked.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: simbench --workload <sm-coherence|mp-messaging|mse-kernel> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Rounds run back to back until at least `seconds` have passed.
struct Section {
    rounds: Vec<Round>,
    secs: f64,
}

impl Section {
    fn run(workload: Workload, inputs: &Inputs, seconds: f64, tracer: &mut Tracer) -> Section {
        let start = Instant::now();
        let mut rounds: Vec<Round> = Vec::new();
        while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            // Only the last traced round's simulations feed the artifact
            // round trip.
            if let Some(last) = rounds.last_mut() {
                last.outputs.clear();
            }
            rounds.push(run_round(workload, inputs, tracer));
        }
        Section {
            rounds,
            secs: start.elapsed().as_secs_f64(),
        }
    }

    /// Host seconds per simulation, one sample per round: the round's
    /// time over its simulations. A round simulates each of the
    /// workload's programs once, so every sample weighs them alike.
    fn samples(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.secs / r.sims as f64).collect()
    }

    fn p50(&self) -> f64 {
        median(&self.samples()).expect("a section runs at least one round")
    }

    fn mcycles_per_s(&self) -> f64 {
        let cycles: u64 = self.rounds.iter().map(|r| r.stats.cycles).sum();
        cycles as f64 / 1e6 / self.secs
    }
}

/// What a run found wrong, and how many simulations it attempted.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    digest: Option<u64>,
}

impl Checks {
    /// Counts a section's simulations and checks that every round
    /// reproduced the same digest.
    fn section(&mut self, s: &Section) {
        for (i, r) in s.rounds.iter().enumerate() {
            self.attempted += r.sims;
            self.failed += r.failed;
            self.errors.extend(r.errors.iter().cloned());
            match (self.digest, r.digest) {
                (_, None) => {}
                (None, Some(d)) => self.digest = Some(d),
                (Some(first), Some(d)) if first != d => {
                    self.errors.push(format!(
                        "round {i} digest {d:016x} differs from {first:016x}"
                    ));
                }
                _ => {}
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.digest.is_some()
    }
}

/// Sets the workload up [`SETUP_REPS`] times: generates the inputs from
/// the seed and runs the untimed warm-up simulation. The first set-up is
/// timed from process start. Returns the inputs and each set-up's
/// seconds.
fn set_up(args: &Args, t0: Instant, checks: &mut Checks) -> (Inputs, Vec<f64>) {
    let mut secs = Vec::new();
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { t0 } else { Instant::now() };
        let generated = workload::inputs(args.seed);
        let program = args.workload.warm_up();
        checks.attempted += 1;
        match workload::simulate(program, &generated) {
            Ok(run) if run.validation.passed => {}
            Ok(run) => {
                checks.failed += 1;
                let detail = run.validation.detail;
                checks.errors.push(format!(
                    "warm-up {}: validation failed: {detail}",
                    program.name()
                ));
            }
            Err(e) => {
                checks.failed += 1;
                checks
                    .errors
                    .push(format!("warm-up {}: {e}", program.name()));
            }
        }
        secs.push(start.elapsed().as_secs_f64());
        inputs = Some(generated);
    }
    (inputs.expect("SETUP_REPS is positive"), secs)
}

/// The process's resident-set high-water mark in megabytes, from
/// `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end numbers of one run.
#[derive(Debug, Default)]
struct EndToEnd {
    mcycles_per_s: f64,
    p50: f64,
    tail: f64,
    peak_rss_mb: f64,
    setup_s: f64,
}

impl EndToEnd {
    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("sim_mcycles_per_s", self.mcycles_per_s, "Mcycles/s"),
            metric("sim_s_p50", self.p50, "s"),
            metric("sim_s_tail", self.tail, "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
            metric("setup_s", self.setup_s, "s"),
        ]
    }
}

/// Measures the end-to-end numbers with tracing, `wwt_obs` and
/// allocation counting off.
fn end_to_end(
    args: &Args,
    inputs: &Inputs,
    setup: &[f64],
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> EndToEnd {
    let mut tracer = Tracer::new(false);
    let section = Section::run(args.workload, inputs, args.seconds, &mut tracer);
    checks.section(&section);
    let samples = section.samples();
    let t = tail(&samples).expect("a section runs at least one round");
    notes.push(format!(
        "sim_s_tail is p{} of {} samples, {} beyond it{}",
        t.percentile,
        samples.len(),
        t.beyond,
        if t.qualified() {
            ""
        } else {
            " (fewer than 10: too few samples for a qualified tail)"
        }
    ));
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    notes.push(format!("set-up seconds: {}", list(setup)));
    notes.push(format!(
        "seconds per simulation, by round: {}",
        list(&samples)
    ));
    EndToEnd {
        mcycles_per_s: section.mcycles_per_s(),
        p50: section.p50(),
        tail: t.value,
        peak_rss_mb: peak_rss_mb().unwrap_or(f64::NAN),
        setup_s: median(setup).expect("SETUP_REPS is positive"),
    }
}

/// The per-layer numbers of one traced run. Counts are per round.
#[derive(Debug, Default)]
struct Layers {
    fail_ratio: f64,
    untraced_p50: f64,
    traced_p50: f64,
    /// One round's simulated totals.
    stats: RoundStats,
    /// Median seconds per round inside `try_run`.
    simulate_s: f64,
    /// Median seconds per round building tables.
    tables_s: f64,
    queue_ns: f64,
    calls_inline_ratio: f64,
    calls_boxed: f64,
    pool_recycled_ratio: f64,
    pool_takes: f64,
    allocs: f64,
    alloc_bytes: f64,
    mem_ns: f64,
    mem_fit_ns: f64,
    sm_ns: f64,
    mp_ns: f64,
    /// The artifact round trip, summed over one round's simulations.
    trip: TripTimes,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        let events = self.stats.events as f64;
        let count = |c: Counter| self.stats.counters.get(c) as f64;
        let mut m = vec![
            metric("fail_ratio", self.fail_ratio, "ratio"),
            metric("trace.sim_s_p50_untraced", self.untraced_p50, "s"),
            metric("trace.sim_s_p50_traced", self.traced_p50, "s"),
            metric(
                "trace.overhead_ratio",
                ratio(self.traced_p50, self.untraced_p50) - 1.0,
                "ratio",
            ),
            metric("sim.events", events, "count"),
            metric("sim.cycles", self.stats.cycles as f64, "cycles"),
            metric(
                "sim.ns_per_event",
                ratio(self.simulate_s * 1e9, events),
                "ns",
            ),
            metric("sim.queue_ns_per_op", self.queue_ns, "ns"),
            metric("sim.calls_inline_ratio", self.calls_inline_ratio, "ratio"),
            metric("sim.calls_boxed", self.calls_boxed, "count"),
            metric("sim.pool_recycled_ratio", self.pool_recycled_ratio, "ratio"),
            metric("sim.pool_takes", self.pool_takes, "count"),
            metric("sim.allocs", self.allocs, "count"),
            metric(
                "sim.allocs_per_event",
                ratio(self.allocs, events),
                "1/event",
            ),
            metric("sim.alloc_bytes", self.alloc_bytes, "B"),
            metric("mem.priv_misses", count(Counter::PrivMisses), "count"),
            metric("mem.tlb_misses", count(Counter::TlbMisses), "count"),
            metric("mem.ns_per_access", self.mem_ns, "ns"),
            metric("mem.ns_per_access_fit", self.mem_fit_ns, "ns"),
            metric("sm.dir_requests", count(Counter::DirRequests), "count"),
            metric("sm.sh_misses_local", count(Counter::ShMissesLocal), "count"),
            metric(
                "sm.sh_misses_remote",
                count(Counter::ShMissesRemote),
                "count",
            ),
            metric("sm.write_faults", count(Counter::WriteFaults), "count"),
            metric("sm.ns_per_txn", self.sm_ns, "ns"),
            metric("mp.packets", count(Counter::PacketsSent), "count"),
            metric(
                "mp.active_messages",
                count(Counter::ActiveMessages),
                "count",
            ),
            metric("mp.channel_writes", count(Counter::ChannelWrites), "count"),
            metric("mp.bytes_data", count(Counter::BytesData), "B"),
            metric("mp.bytes_control", count(Counter::BytesControl), "B"),
            metric("mp.retransmits", count(Counter::Retransmits), "count"),
            metric("mp.ns_per_roundtrip", self.mp_ns, "ns"),
            metric("sync.barriers", count(Counter::Barriers), "count"),
            metric("sync.reductions", count(Counter::Reductions), "count"),
            metric("sync.broadcasts", count(Counter::Broadcasts), "count"),
        ];
        let kinds = self.stats.matrix.kind_totals();
        for kind in Kind::ALL {
            let name = format!("account.cycles.{}", name_part(kind.label()));
            m.push(metric(name, kinds[kind.index()] as f64, "cycles"));
        }
        m.extend([
            // Time inside `try_run` less the scheduler's share, priced
            // at the queue probe's cost per event.
            metric(
                "apps.run_s",
                self.simulate_s - events * self.queue_ns * 1e-9,
                "s",
            ),
            metric("core.tables_s", self.tables_s, "s"),
            metric("core.cache_encode_s", self.trip.encode_s, "s"),
            metric("core.cache_decode_s", self.trip.decode_s, "s"),
            metric("store.commit_s", self.trip.commit_s, "s"),
            metric("store.read_s", self.trip.read_s, "s"),
            metric("store.entry_bytes", self.trip.entry_bytes as f64, "B"),
        ]);
        m
    }
}

/// Measures the per-layer numbers: half the run untraced, half traced
/// (spans, `wwt_obs` and allocation counting on), then the layer probes
/// and the artifact round trip.
fn per_layer(args: &Args, inputs: &Inputs, checks: &mut Checks, notes: &mut Vec<String>) -> Layers {
    let half = args.seconds / 2.0;
    let mut tracer = Tracer::new(false);
    let untraced = Section::run(args.workload, inputs, half, &mut tracer);
    checks.section(&untraced);

    obs::enable();
    obs::reset();
    tracer.set_enabled(true);
    trace::count_allocs(true);
    let mut traced = Section::run(args.workload, inputs, half, &mut tracer);
    trace::count_allocs(false);
    tracer.set_enabled(false);
    obs::disable();
    checks.section(&traced);
    let (allocs, alloc_bytes) = trace::alloc_totals();
    let nrounds = traced.rounds.len() as f64;
    let ctr = |c: Ctr| obs::counter(c) as f64;
    let per_round = |f: &dyn Fn(&Round) -> f64| {
        median(&traced.rounds.iter().map(f).collect::<Vec<_>>()).expect("at least one round")
    };

    let mut layers = Layers {
        untraced_p50: untraced.p50(),
        traced_p50: traced.p50(),
        // Every round simulates the same inputs (the digests match), so
        // one round's counts stand for all.
        stats: traced.rounds[0].stats.clone(),
        simulate_s: per_round(&|r| r.simulate_secs.iter().sum()),
        tables_s: per_round(&|r| r.tables_secs.iter().sum()),
        queue_ns: probes::queue_ns_per_op(),
        calls_inline_ratio: ratio(
            ctr(Ctr::SimCallInline),
            ctr(Ctr::SimCallInline) + ctr(Ctr::SimCallBoxed),
        ),
        calls_boxed: ctr(Ctr::SimCallBoxed) / nrounds,
        pool_recycled_ratio: ratio(
            ctr(Ctr::SimPoolTakeRecycled),
            ctr(Ctr::SimPoolTakeRecycled) + ctr(Ctr::SimPoolTakeFresh),
        ),
        pool_takes: (ctr(Ctr::SimPoolTakeRecycled) + ctr(Ctr::SimPoolTakeFresh)) / nrounds,
        allocs: allocs as f64 / nrounds,
        alloc_bytes: alloc_bytes as f64 / nrounds,
        mem_ns: probes::cache_ns_per_access_spill(),
        mem_fit_ns: probes::cache_ns_per_access_fit(),
        sm_ns: probes::sm_ns_per_txn(),
        mp_ns: probes::mp_ns_per_roundtrip(),
        ..Layers::default()
    };

    tracer.set_enabled(true);
    let dir = scratch_dir();
    let outputs = std::mem::take(
        &mut traced
            .rounds
            .last_mut()
            .expect("at least one round")
            .outputs,
    );
    for sim in outputs {
        match artifact_round_trip(&dir, sim, &mut tracer) {
            Ok(t) => layers.trip.add(&t),
            Err(e) => checks.errors.push(e),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    tracer.set_enabled(false);
    write_spans(args, &tracer, notes);

    notes.push(format!(
        "tracing overhead: sim_s_p50 {:.6} s untraced, {:.6} s traced ({} and {} rounds)",
        layers.untraced_p50,
        layers.traced_p50,
        untraced.rounds.len(),
        traced.rounds.len()
    ));
    layers.fail_ratio = ratio(checks.failed as f64, checks.attempted as f64);
    layers
}

/// Where the artifact round trip writes, inside the working directory,
/// unique to this process.
fn scratch_dir() -> PathBuf {
    PathBuf::from(".simbench").join(format!("store-{}", std::process::id()))
}

/// Writes the traced run's spans to `.simbench/spans-<workload>-<seed>.json`.
fn write_spans(args: &Args, tracer: &Tracer, notes: &mut Vec<String>) {
    let path = PathBuf::from(".simbench").join(format!(
        "spans-{}-{}.json",
        args.workload.name(),
        args.seed
    ));
    let written =
        std::fs::create_dir_all(".simbench").and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let (inputs, setup) = set_up(&args, t0, &mut checks);
    let metrics = if args.trace {
        per_layer(&args, &inputs, &mut checks, &mut notes).metrics()
    } else {
        end_to_end(&args, &inputs, &setup, &mut checks, &mut notes).metrics()
    };

    let w = args.workload;
    println!(
        "simbench {} seed {}{} trace {}",
        w.name(),
        args.seed,
        if w.uses_seed() {
            ""
        } else {
            " (this workload ignores the seed)"
        },
        u8::from(args.trace)
    );
    for m in &metrics {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for n in &notes {
        println!("  {n}");
    }
    match checks.digest {
        Some(d) => println!("  digest {d:016x}"),
        None => println!("  digest none"),
    }
    for e in &checks.errors {
        println!("  error: {e}");
    }
    println!(
        "{}",
        result_json(checks.correct(), checks.attempted, checks.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use output::json;

    fn strings(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse() {
        let a = parse_args(&strings(
            "--workload mse-kernel --seed 7 --seconds 10 --trace 1",
        ));
        assert_eq!(
            a,
            Ok(Args {
                workload: Workload::MseKernel,
                seed: 7,
                seconds: 10.0,
                trace: true
            })
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload mse-kernel --seed -1 --seconds 1 --trace 0",
            "--workload mse-kernel --seed 1 --seconds 0 --trace 0",
            "--workload mse-kernel --seed 1 --seconds 1 --trace 2",
            "--workload mse-kernel --seed 1 --seconds 1",
            "--workload mse-kernel --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// The names in a list of `BENCHMARK.json`.
    fn listed(doc: &json::Value, key: &str) -> Vec<String> {
        let Some(json::Value::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|i| match i.get("name") {
                Some(json::Value::Str(s)) => s.clone(),
                other => panic!("{key} entry without a name: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |ms: Vec<Metric>| ms.into_iter().map(|m| m.name).collect::<Vec<_>>();
        let e2e = names(EndToEnd::default().metrics());
        let layers = names(Layers::default().metrics());
        for n in e2e.iter().chain(&layers) {
            assert!(output::valid_name(n), "{n}");
        }
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        assert_eq!(listed(&doc, "per_layer"), layers);
    }
}
