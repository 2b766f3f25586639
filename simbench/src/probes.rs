//! Layer probes: fixed, seeded synthetic streams driven through one
//! layer's public API, each reporting host nanoseconds per operation.
//! Each probe repeats its stream and reports the median repetition.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use wwt_core::mem::{AccessKind, Cache, CacheGeometry, BLOCK_BYTES};
use wwt_core::mp::{tag, MpConfig, MpMachine};
use wwt_core::sim::event::{Action, CalendarQueue};
use wwt_core::sim::{Counter, Engine, Kind, ProcId, SimConfig};
use wwt_core::sm::{SmConfig, SmMachine};

use crate::stats::median;

/// Repetitions of each probe.
const REPS: usize = 5;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Median over [`REPS`] runs of `f`, which returns (nanoseconds, ops).
fn per_op(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, ops) = f();
            ns / ops.max(1) as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = black_box(f());
    (t.elapsed().as_nanos() as f64, out)
}

/// `CalendarQueue`: nanoseconds per event (one pop and one push) on an
/// EM3D-like delay stream over 32 processors — mostly one 100-cycle
/// network latency ahead, some immediate re-polls, an occasional
/// barrier-scale jump.
pub fn queue_ns_per_op() -> f64 {
    const PROCS: usize = 32;
    const EVENTS: u64 = 200_000;
    per_op(|| {
        let (ns, _) = timed(|| {
            let mut q = CalendarQueue::new();
            let mut seq = 0u64;
            for p in 0..PROCS {
                q.push(p as u64, seq, Action::Resume(ProcId::new(p)));
                seq += 1;
            }
            let mut rng = 0x9e37_79b9_7f4a_7c15u64;
            let mut fold = 0u64;
            for _ in 0..EVENTS {
                let ev = q.pop().expect("the queue never drains");
                fold = fold.rotate_left(7).wrapping_add(ev.time ^ ev.seq);
                let Action::Resume(p) = ev.action else {
                    unreachable!("the probe schedules only resumes")
                };
                let delay = match xorshift(&mut rng) % 16 {
                    0 => 1,
                    1 => 2_500,
                    _ => 100,
                };
                q.push(ev.time + delay, seq, Action::Resume(p));
                seq += 1;
            }
            fold
        });
        (ns, EVENTS)
    })
}

/// `wwt_mem::Cache::access` on the paper's 256 KB cache: nanoseconds per
/// access for a random stream over a working set of `ws_bytes`, one
/// access in four a write. Each repetition starts from an empty cache.
fn cache_ns_per_access(ws_bytes: u64) -> f64 {
    const ACCESSES: u64 = 1_000_000;
    let blocks = ws_bytes / BLOCK_BYTES;
    per_op(|| {
        let (ns, _) = timed(|| {
            let mut cache = Cache::new(CacheGeometry::paper_default(), 1);
            let mut rng = 0x2545_f491_4f6c_dd1du64;
            let mut hits = 0u64;
            for i in 0..ACCESSES {
                let block = (xorshift(&mut rng) % blocks) * BLOCK_BYTES;
                let kind = if i % 4 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                hits += u64::from(cache.access(block, kind).hit);
            }
            hits
        });
        (ns, ACCESSES)
    })
}

/// The cache probe below capacity (128 KB working set).
pub fn cache_ns_per_access_fit() -> f64 {
    cache_ns_per_access(128 * 1024)
}

/// The cache probe above capacity (1 MB working set).
pub fn cache_ns_per_access_spill() -> f64 {
    cache_ns_per_access(1024 * 1024)
}

/// SM directory transactions: a producer and a consumer on two nodes
/// bounce one block through the Dir_nNB protocol. Each round the producer
/// writes the block and raises a flag; the consumer waits for the flag,
/// reads the block and acknowledges, so every round misses, invalidates
/// and upgrades. Nanoseconds of host time per directory request.
pub fn sm_ns_per_txn() -> f64 {
    const ROUNDS: u64 = 2_000;
    per_op(|| {
        let (ns, report) = timed(|| {
            let mut e = Engine::new(2, SimConfig::default());
            let m = SmMachine::new(&e, SmConfig::default());
            let x = m.gmalloc_on(0, 8, 8);
            let ack = m.gmalloc_on(0, 8, 8);
            let flag = m.gmalloc_on(1, 8, 8);
            let (m0, c0) = (Rc::clone(&m), e.cpu(ProcId::new(0)));
            e.spawn(ProcId::new(0), async move {
                for k in 1..=ROUNDS {
                    m0.write_f64(&c0, x, k as f64).await;
                    m0.write_u64(&c0, flag, k).await;
                    m0.flag_wait(&c0, ack, k, Kind::Wait).await;
                }
            });
            let (m1, c1) = (Rc::clone(&m), e.cpu(ProcId::new(1)));
            e.spawn(ProcId::new(1), async move {
                for k in 1..=ROUNDS {
                    m1.flag_wait(&c1, flag, k, Kind::Wait).await;
                    black_box(m1.read_f64(&c1, x).await);
                    m1.write_u64(&c1, ack, k).await;
                }
            });
            e.try_run().expect("the bounce probe completes")
        });
        (ns, report.total_counter(Counter::DirRequests))
    })
}

/// One MP active-message round trip between two nodes. Nanoseconds of
/// host time per round trip.
pub fn mp_ns_per_roundtrip() -> f64 {
    const TRIPS: u32 = 2_000;
    per_op(|| {
        let (ns, _) = timed(|| {
            let mut e = Engine::new(2, SimConfig::default());
            let m = MpMachine::new(&e, MpConfig::default());
            m.set_handler(tag::USER_BASE, |_| {});
            for p in e.proc_ids() {
                let (m, cpu) = (Rc::clone(&m), e.cpu(p));
                e.spawn(p, async move {
                    let peer = ProcId::new(1 - p.index());
                    for k in 0..TRIPS {
                        let arrived = move |n: u64| n > u64::from(k);
                        if p.index() == 0 {
                            m.am_send(&cpu, peer, tag::USER_BASE, 0, [k, 0, 0, 0]).await;
                            m.poll_until(&cpu, arrived).await;
                        } else {
                            m.poll_until(&cpu, arrived).await;
                            m.am_send(&cpu, peer, tag::USER_BASE, 0, [k, 0, 0, 0]).await;
                        }
                    }
                });
            }
            e.try_run().expect("the ping-pong probe completes")
        });
        (ns, u64::from(TRIPS))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_costs() {
        for (name, v) in [
            ("queue", queue_ns_per_op()),
            ("sm", sm_ns_per_txn()),
            ("mp", mp_ns_per_roundtrip()),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name}: {v}");
        }
    }
}
