//! The message-passing hot path allocates nothing per packet: every
//! scheduled delivery, acknowledgement and retransmit timer fits
//! `SmallCall`'s inline budget, and blocking NI polls recycle their wait
//! cells. Counted through the process-global `wwt_obs` registry, so this
//! file holds a single test and runs as its own binary.

use std::cell::Cell;
use std::rc::Rc;

use wwt_mp::{tag, MpConfig, MpMachine};
use wwt_sim::obs::{self, Ctr};
use wwt_sim::{Engine, FaultConfig, ProcId, SimConfig};

/// An active-message request and its reply between two nodes.
fn round_trip(faults: Option<FaultConfig>) {
    let mut e = Engine::new(
        2,
        SimConfig {
            faults,
            ..SimConfig::default()
        },
    );
    let m = MpMachine::new(&e, MpConfig::default());
    const REQ: u8 = tag::USER_BASE;
    const REP: u8 = tag::USER_BASE + 1;
    let got: Rc<Cell<u32>> = Rc::default();
    m.set_handler(REQ, |a| {
        a.machine
            .am_send_from_handler(a.cpu, a.src, REP, 0, [a.words[0] + 1, 0, 0, 0], 4);
    });
    {
        let got = Rc::clone(&got);
        m.set_handler(REP, move |a| got.set(a.words[0]));
    }
    let m0 = Rc::clone(&m);
    let c0 = e.cpu(ProcId::new(0));
    e.spawn(ProcId::new(0), async move {
        for k in 0..20 {
            m0.am_send(&c0, ProcId::new(1), REQ, 0, [k, 0, 0, 0]).await;
            m0.poll_until(&c0, |n| n > k as u64).await;
        }
    });
    let m1 = Rc::clone(&m);
    let c1 = e.cpu(ProcId::new(1));
    e.spawn(ProcId::new(1), async move {
        m1.poll_until(&c1, |n| n >= 20).await;
    });
    e.run();
    assert_eq!(got.get(), 20);
}

#[test]
fn active_message_round_trips_never_box_a_callback() {
    obs::enable();
    for faults in [
        None,
        Some(FaultConfig::parse("seed=3,drop=0.2,dup=0.1").unwrap()),
    ] {
        obs::reset();
        round_trip(faults);
        let faulted = faults.is_some();
        assert_eq!(obs::counter(Ctr::SimCallBoxed), 0, "faulted={faulted}");
        assert!(obs::counter(Ctr::SimCallInline) > 0, "faulted={faulted}");
        assert!(
            obs::counter(Ctr::SimPoolTakeRecycled) > 0,
            "faulted={faulted}"
        );
    }
    obs::disable();
}
