//! The `gate_tcp` generator is open loop: a session is timed from when it
//! fell due, so a server stall shows in every session queued behind it,
//! not only in the few that were in flight when it began.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use perfbench::gate::{await_handlers, run_open_loop, schedule, Server};
use sybil_gate::wire::Frame;
use sybil_gate::{GateConfig, GateService, Response, SharedGate};
use sybil_sim::Time;

const STALL: Duration = Duration::from_millis(300);
const RATE: f64 = 200.0;

/// A global-lock gate whose `STALL_ON`-th connect sleeps with the lock
/// held: the whole service stops for [`STALL`] once.
struct StallingGate {
    inner: Mutex<GateService>,
    connects: AtomicUsize,
}

const STALL_ON: usize = 60;

impl SharedGate for StallingGate {
    fn connect(&self, now: Time) -> (u64, Frame) {
        let mut gate = self.inner.lock().expect("stub gate poisoned");
        if self.connects.fetch_add(1, Ordering::SeqCst) == STALL_ON {
            std::thread::sleep(STALL);
        }
        gate.connect(now)
    }
    fn handle(&self, conn: u64, frame: &Frame, now: Time) -> Response {
        self.inner.lock().expect("stub gate poisoned").handle(conn, frame, now)
    }
}

#[test]
fn a_stall_is_charged_to_every_session_due_during_it() {
    let Ok(probe) = std::net::TcpListener::bind("127.0.0.1:0") else {
        eprintln!("skipping: cannot bind a localhost listener here");
        return;
    };
    drop(probe);
    let gate = Arc::new(StallingGate {
        inner: Mutex::new(GateService::new(GateConfig {
            difficulty_floor: 4,
            ..GateConfig::default()
        })),
        connects: AtomicUsize::new(0),
    });
    let server = Server::start(Arc::clone(&gate), 8).expect("serve the stub");
    let sched = schedule(7, RATE, 1.0, 0.5);
    let run = run_open_loop(server.addr(), &sched, 2, 7);
    server.stop().expect("stop the acceptor");
    assert!(await_handlers(&gate, Duration::from_secs(10)), "handler threads must finish");

    let tally = run.tally();
    assert_eq!(tally.failures(), 0, "the stall delays sessions but fails none: {tally:?}");
    assert_eq!(tally.admitted, tally.honest);
    let admits = run.admits();
    // With two clients, only two sessions can be in flight when the stall
    // begins. Timed from the send, only they would carry the stall; timed
    // from the due time, so does every session that fell due during the
    // first half of it.
    let waited =
        admits.iter().filter(|&&(_, ns)| ns as f64 > 0.5 * STALL.as_nanos() as f64).count();
    let due_in_half_stall = (0.5 * STALL.as_secs_f64() * RATE * 0.5) as usize;
    assert!(
        waited >= due_in_half_stall.max(10),
        "{waited} sessions carried more than half the stall; expected at least {due_in_half_stall}"
    );
    // The generator reports how late it ran: the sessions queued behind
    // the stall started late by up to the stall itself.
    let p99 = run.lateness_p99_us();
    assert!(p99 > 0.25 * STALL.as_micros() as f64, "gen.lateness_p99_us = {p99} us");
    // Latency decreases with due time across the stall: the wait is the
    // time from due to the end of the stall.
    let mut late: Vec<(Duration, u64)> = admits
        .iter()
        .copied()
        .filter(|&(_, ns)| ns as f64 > 0.5 * STALL.as_nanos() as f64)
        .collect();
    late.sort();
    assert!(
        late.first().map(|f| f.1) > late.last().map(|l| l.1),
        "earlier-due sessions wait longer"
    );
}
