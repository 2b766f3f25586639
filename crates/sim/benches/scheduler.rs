//! Scheduler microbenchmarks: the legacy binary-heap [`EventQueue`]
//! against the engine's two-level [`CalendarQueue`] on two event
//! streams, plus the threaded parallel engine across shard counts on the
//! ring workload.
//!
//! The near stream mirrors what the SM experiments feed the scheduler:
//! the overwhelming majority of events land one network latency (100
//! cycles) ahead of the present, a few are immediate wakeups, and an
//! occasional barrier re-arm jumps a couple of thousand cycles out. The
//! far stream mirrors EM3D-MP, whose processors run ahead of global time
//! and post bulk channel writes: half the events land 8K–1M cycles
//! ahead, in the calendar's coarse wheel.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};

use wwt_sim::event::{Action, CalendarQueue, EventQueue};
use wwt_sim::parallel::workloads::install_ring;
use wwt_sim::{ParConfig, ParEngine, ProcId};

const NPROCS: usize = 32;
const EVENTS: u64 = 100_000;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Deterministic EM3D-like delay distribution: mostly the 100-cycle
/// network latency, some immediate re-polls, an occasional barrier-scale
/// jump.
fn near_delay(state: &mut u64) -> u64 {
    match xorshift(state) % 16 {
        0 => 1,
        1 => 2_500,
        _ => 100,
    }
}

/// EM3D-MP-like: half the events a network latency ahead, half bulk
/// deliveries 8K–1M cycles ahead.
fn far_delay(state: &mut u64) -> u64 {
    let r = xorshift(state);
    if r & 1 == 0 {
        100
    } else {
        8_192 + (r >> 1) % 1_000_000
    }
}

/// Pop-schedule churn on the binary-heap reference queue; returns an
/// order-sensitive checksum of the pop sequence.
fn churn_heap(delay: fn(&mut u64) -> u64) -> u64 {
    let mut q = EventQueue::new();
    for p in 0..NPROCS {
        q.push(p as u64, Action::Resume(ProcId::new(p)));
    }
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut fold = 0u64;
    for _ in 0..EVENTS {
        let ev = q.pop().expect("queue never drains");
        fold = fold
            .rotate_left(7)
            .wrapping_add(ev.time)
            .wrapping_add(ev.seq);
        let p = match ev.action {
            Action::Resume(p) => p,
            Action::Call(_) => unreachable!("bench schedules only resumes"),
        };
        q.push(ev.time + delay(&mut rng), Action::Resume(p));
    }
    fold
}

/// The same churn on the calendar queue, which takes explicit sequence
/// numbers.
fn churn_calendar(delay: fn(&mut u64) -> u64) -> u64 {
    let mut q = CalendarQueue::new();
    let mut seq = 0u64;
    for p in 0..NPROCS {
        q.push(p as u64, seq, Action::Resume(ProcId::new(p)));
        seq += 1;
    }
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut fold = 0u64;
    for _ in 0..EVENTS {
        let ev = q.pop().expect("queue never drains");
        fold = fold
            .rotate_left(7)
            .wrapping_add(ev.time)
            .wrapping_add(ev.seq);
        let p = match ev.action {
            Action::Resume(p) => p,
            Action::Call(_) => unreachable!("bench schedules only resumes"),
        };
        q.push(ev.time + delay(&mut rng), seq, Action::Resume(p));
        seq += 1;
    }
    fold
}

fn bench_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.sample_size(10);
    for (name, delay) in [
        ("near", near_delay as fn(&mut u64) -> u64),
        ("far", far_delay),
    ] {
        // Both schedulers implement one ordering contract: identical pop
        // sequences (and therefore identical simulations) — the bench
        // only compares their speed.
        assert_eq!(
            churn_heap(delay),
            churn_calendar(delay),
            "calendar pop order diverged ({name})"
        );
        g.bench_function(&format!("binary-heap-{name}"), |b| {
            b.iter(|| black_box(churn_heap(delay)))
        });
        g.bench_function(&format!("calendar-{name}"), |b| {
            b.iter(|| black_box(churn_calendar(delay)))
        });
    }
    g.finish();
}

fn bench_par_engine(c: &mut Criterion) {
    let ring = |shards: usize| {
        let cfg = ParConfig {
            shards,
            ..ParConfig::default()
        };
        let mut eng = ParEngine::new(NPROCS, cfg);
        install_ring(&mut eng, NPROCS, 50, 500);
        eng.run()
    };
    let baseline = ring(1);
    let mut g = c.benchmark_group("par-engine-ring");
    g.sample_size(5);
    for shards in [1usize, 2, 4, 8] {
        let report = ring(shards);
        assert_eq!(baseline, report, "shards={shards} changed the results");
        g.bench_function(&format!("shards-{shards}"), |b| {
            b.iter(|| black_box(ring(shards).elapsed()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_schedulers, bench_par_engine);
criterion_main!(benches);
