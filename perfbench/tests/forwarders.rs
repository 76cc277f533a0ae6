//! The timing forwarders must not change the program they wrap: every
//! wrapped run gives the bare run's `SimReport` or decision fingerprint,
//! and every defaulted trait method reports the wrapped value.

use std::rc::Rc;
use std::sync::Arc;

use perfbench::sim::run_cell;
use perfbench::trace::{
    GateProbe, SimProbe, Site, TimedAdversary, TimedDefense, TimedGate, TimedShared, TimedSource,
};
use sybil_bench::sweep::Algo;
use sybil_churn::networks;
use sybil_gate::wire::Frame;
use sybil_gate::{replay, GateConfig, GateService, ReplayConfig, ShardedGate, SharedGate};
use sybil_sim::adversary::FractionKeeper;
use sybil_sim::defense::Defense;
use sybil_sim::{
    write_workload_file, DiskWorkload, ShardedWorkload, SimConfig, Simulation, Time, Workload,
    WorkloadSource,
};

const HORIZON: f64 = 300.0;

fn workload() -> Workload {
    networks::gnutella().generate(Time(HORIZON), 5)
}

fn cfg(t: f64) -> SimConfig {
    SimConfig { horizon: Time(HORIZON), adv_rate: t, ..SimConfig::default() }
}

fn disk(tag: &str) -> (DiskWorkload, std::path::PathBuf) {
    let path =
        std::env::temp_dir().join(format!("perfbench_fwd_{tag}_{}.wkld", std::process::id()));
    write_workload_file(&path, &workload()).expect("write workload");
    (DiskWorkload::open(&path).expect("reopen workload"), path)
}

#[test]
fn wrapped_cells_match_bare_cells_for_every_defense_and_source() {
    let (disk, path) = disk("cells");
    for algo in perfbench::sim::roster() {
        for t in [0.0, 64.0, 65_536.0] {
            let seed = 11;
            let bare = run_cell(cfg(t), algo, t, seed, workload(), None).0;
            let probe = SimProbe::new();
            let wrapped = run_cell(cfg(t), algo, t, seed, workload(), Some(&probe)).0;
            assert_eq!(bare, wrapped, "{} at T={t}: memory source", algo.label());
            let bare = run_cell(cfg(t), algo, t, seed, disk.clone(), None).0;
            let wrapped = run_cell(cfg(t), algo, t, seed, disk.clone(), Some(&probe)).0;
            assert_eq!(bare, wrapped, "{} at T={t}: disk source", algo.label());
            let sharded = || ShardedWorkload::from_disk(disk.clone(), 3);
            let bare = run_cell(cfg(t), algo, t, seed, sharded(), None).0;
            let wrapped = run_cell(cfg(t), algo, t, seed, sharded(), Some(&probe)).0;
            assert_eq!(bare, wrapped, "{} at T={t}: sharded source", algo.label());
        }
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn defaulted_source_and_stream_methods_forward() {
    let (disk, path) = disk("defaults");
    let probe = SimProbe::new();
    let memory = TimedSource::new(workload(), Rc::clone(&probe));
    assert!(memory.preallocate_admission(), "resident workloads preallocate admission");
    assert!(!TimedSource::new(disk.clone(), Rc::clone(&probe)).preallocate_admission());
    let sharded = TimedSource::new(ShardedWorkload::from_disk(disk, 3), Rc::clone(&probe));
    assert_eq!(sharded.state_shards(), 3, "the ledger layout follows the wrapped source");
    // The merged stream must reach the engine's merged loop through the
    // forwarder, or a sharded replay would silently lose its events.
    let report = Simulation::new(
        cfg(64.0),
        sybil_defenses::ergo(),
        sybil_sim::adversary::BudgetJoiner::new(64.0),
        sharded,
    )
    .run();
    assert!(report.events_processed > 0);
    assert!(probe.snapshot().site(Site::NextEvent).calls > 0, "next_event is forwarded");
    std::fs::remove_file(path).ok();
}

#[test]
fn needs_quote_and_defense_defaults_forward() {
    // BudgetJoiner never reads the quote, so the engine must skip it under
    // the forwarder too; FractionKeeper does read it.
    let probe = SimProbe::new();
    run_cell(cfg(64.0), Algo::Ergo, 64.0, 3, workload(), Some(&probe));
    assert_eq!(probe.snapshot().site(Site::Quote).calls, 0);

    let bare = Simulation::new(
        cfg(64.0),
        sybil_defenses::ergo(),
        FractionKeeper::new(0.1, 64.0),
        workload(),
    )
    .run();
    let probe = SimProbe::new();
    let wrapped = Simulation::new(
        cfg(64.0),
        TimedDefense::new(sybil_defenses::ergo(), Rc::clone(&probe)),
        TimedAdversary::new(FractionKeeper::new(0.1, 64.0), Rc::clone(&probe)),
        TimedSource::new(workload(), Rc::clone(&probe)),
    )
    .run();
    assert_eq!(bare, wrapped);
    assert!(probe.snapshot().site(Site::Quote).calls > 0);

    let mut inner = sybil_defenses::ergo();
    let mut timed = TimedDefense::new(sybil_defenses::ergo(), SimProbe::new());
    inner.init(Time::ZERO, 40, 3);
    timed.init(Time::ZERO, 40, 3);
    assert_eq!(timed.n_good(), inner.n_good());
    timed.purge(Time(1.0), 0);
    inner.purge(Time(1.0), 0);
    assert_eq!(timed.drain_events(), inner.drain_events());
}

fn gate_workload() -> Workload {
    perfbench::gate::gate_model().generate(Time(20.0), 9)
}

#[test]
fn wrapped_gate_replays_match_bare_replays() {
    let cfg = ReplayConfig { horizon: Time(20.0), adversarial_fraction: 0.3, seed: 4 };
    let service = || GateService::new(GateConfig { initial_size: 2000, ..GateConfig::default() });
    let (bare, bare_report) = replay(gate_workload(), service(), &cfg);
    let probe = Arc::new(GateProbe::default());
    let (wrapped, report) =
        replay(gate_workload(), TimedGate::new(service(), Arc::clone(&probe)), &cfg);
    let wrapped = wrapped.into_inner();
    assert_eq!(bare.fingerprint(), wrapped.fingerprint());
    assert_eq!(bare.counters(), wrapped.counters());
    assert_eq!(bare_report.hist.count(), report.hist.count());
    assert_eq!(
        probe.spans().len() as u64,
        report.connections + report.hist.count() + report.departs
    );
}

#[test]
fn wrapped_shared_gate_makes_the_same_decisions() {
    // Driven serially, the sharded service's decisions are deterministic.
    let drive = |gate: &dyn SharedGate| {
        for i in 0..50u64 {
            let now = Time(i as f64 * 0.1);
            let (conn, hello) = gate.connect(now);
            let Frame::Hello { difficulty, nonce, .. } = hello else { panic!("expected a hello") };
            let challenge = sybil_crypto::Challenge::new(&nonce, &i.to_be_bytes(), difficulty);
            let solution = if i % 3 == 0 {
                u64::MAX - i
            } else {
                sybil_crypto::Solver::new().solve(&challenge).nonce
            };
            gate.handle(conn, &Frame::Join { client_tag: i, solution }, now);
        }
    };
    let bare = ShardedGate::new(GateConfig::default(), 1);
    drive(&bare);
    let wrapped = TimedShared::new(
        ShardedGate::new(GateConfig::default(), 1),
        Arc::new(GateProbe::default()),
    );
    drive(&wrapped);
    assert_eq!(bare.fingerprint(), wrapped.inner().fingerprint());
    assert_eq!(bare.counters(), wrapped.inner().counters());
}
