//! The paper's simulators support 1–128 processors; exercise the
//! extremes of that range on both machines.

use std::rc::Rc;

use wwt::mp::{MpConfig, MpMachine, TreeShape};
use wwt::sim::{Counter, Engine, ProcId, SimConfig};
use wwt::sm::{SmCollectives, SmConfig, SmMachine};

#[test]
fn mp_collectives_span_128_processors() {
    let n = 128;
    let mut e = Engine::new(n, SimConfig::default());
    let m = MpMachine::new(&e, MpConfig::default());
    let total = Rc::new(std::cell::Cell::new(0.0f64));
    for p in e.proc_ids() {
        let m = Rc::clone(&m);
        let cpu = e.cpu(p);
        let total = Rc::clone(&total);
        e.spawn(p, async move {
            let s = m.reduce_sum_f64(&cpu, TreeShape::Lopsided, 0, 1.0).await;
            let v = m
                .bcast_f64(&cpu, TreeShape::Lopsided, 0, s.unwrap_or(0.0))
                .await;
            if p.index() == 0 {
                total.set(v);
            }
            m.barrier(&cpu).await;
        });
    }
    e.run();
    assert_eq!(total.get(), 128.0);
}

/// The full map on machines at every sharer-word boundary, up to 128
/// nodes: everyone reads one block, node 0 writes it, everyone reads it
/// again.
#[test]
fn sm_directory_tracks_128_sharers() {
    for n in [31, 32, 33, 64, 65, 128] {
        let mut e = Engine::new(n, SimConfig::default());
        let m = SmMachine::new(&e, SmConfig::default());
        let x = m.gmalloc_on(0, 8, 8);
        m.poke_f64(x, 2.5);
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let cpu = e.cpu(p);
            e.spawn(p, async move {
                // Everyone reads (the full map fills up), then node 0
                // writes, invalidating all n - 1 other sharers.
                let v = m.read_f64(&cpu, x).await;
                assert_eq!(v, 2.5);
                m.barrier(&cpu).await;
                if p.index() == 0 {
                    m.write_f64(&cpu, x, 3.5).await;
                }
                m.barrier(&cpu).await;
                let v = m.read_f64(&cpu, x).await;
                assert_eq!(v, 3.5);
            });
        }
        let r = e.run();
        assert!(m.coherence_violations().is_empty(), "{n} nodes");
        // Node 0's control traffic: its read miss (request, response
        // header), its upgrade (request, grant), and one invalidation
        // plus one acknowledgement per other sharer. The re-read hits.
        let ctrl = m.config().ctrl_msg_bytes;
        assert_eq!(
            r.proc(ProcId::new(0)).counters.get(Counter::BytesControl),
            (4 + 2 * (n as u64 - 1)) * ctrl,
            "{n} nodes"
        );
    }
}

#[test]
fn sm_reduction_over_128_processors() {
    let n = 128;
    let mut e = Engine::new(n, SimConfig::default());
    let m = SmMachine::new(&e, SmConfig::default());
    let coll = Rc::new(SmCollectives::new(&m));
    let got = Rc::new(std::cell::Cell::new(0.0f64));
    for p in e.proc_ids() {
        let m = Rc::clone(&m);
        let coll = Rc::clone(&coll);
        let cpu = e.cpu(p);
        let got = Rc::clone(&got);
        e.spawn(p, async move {
            if let Some(s) = coll.reduce_sum_f64(&m, &cpu, (p.index() + 1) as f64).await {
                got.set(s);
            }
            m.barrier(&cpu).await;
        });
    }
    e.run();
    assert_eq!(got.get(), (128 * 129 / 2) as f64);
}

#[test]
#[should_panic(expected = "up to 128 nodes")]
fn sm_rejects_more_than_128_processors() {
    let e = Engine::new(129, SimConfig::default());
    let _ = SmMachine::new(&e, SmConfig::default());
}

#[test]
fn one_processor_machines_work_end_to_end() {
    // Degenerate single-node machines: collectives and barriers are
    // no-ops, everything still runs.
    let mut e = Engine::new(1, SimConfig::default());
    let m = MpMachine::new(&e, MpConfig::default());
    let cpu = e.cpu(ProcId::new(0));
    let m0 = Rc::clone(&m);
    e.spawn(ProcId::new(0), async move {
        let s = m0
            .reduce_sum_f64(&cpu, TreeShape::Lopsided, 0, 7.0)
            .await
            .expect("single node is the root");
        assert_eq!(s, 7.0);
        let b = m0.bcast_f64(&cpu, TreeShape::Flat, 0, s).await;
        assert_eq!(b, 7.0);
        m0.barrier(&cpu).await;
    });
    e.run();
}
