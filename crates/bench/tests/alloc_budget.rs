//! Engine goldens and steady-state allocation budgets.
//!
//! **Goldens.** Seven fixed scenarios pin the engine's behaviour: every
//! build replays each one and asserts its event count and its `SimReport`
//! fingerprint (admitted good and bad joins, purges, good and adversary
//! spend). Integer counters must match exactly; spend sums are compared
//! within a relative error of 1e-9, which absorbs cross-libm rounding.
//! A change that moves any of them changed behaviour, not just speed.
//!
//! **Allocation budgets.** The zero-allocation hot-path contract, pinned
//! per defense × per adversary spend rate and per golden scenario. Each
//! case measures allocator calls over exactly the engine's steady-state
//! event loop (the span `Simulation::run_spanned` brackets — construction
//! and `Defense::init`, where capacity reserves are free, fall outside
//! it; see crates/sim/README.md, "Allocation budget"). The warm-up is
//! structural: everything before the span is the warm-up, and the
//! assertion covers every event after it.
//!
//! The measurements are only live when this binary is built with
//! `--features alloc-count` (the CI `alloc` job does); without it the
//! counters read zero structurally and the budget assertions are
//! vacuous, so the cases still run as behavioural checks but say so.

use std::path::{Path, PathBuf};

use sybil_bench::sweep::{
    defense_seed, run_report_measured, run_report_with_measured, Algo, RunParams,
};
use sybil_churn::networks;
use sybil_sim::{write_workload_file, DiskWorkload, ShardedWorkload, SimConfig, SimReport, Time};

// Under `alloc-count` every heap allocation in this process is counted on
// thread-local counters; each test thread measures its own span.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: sybil_exp::alloc::CountingAlloc = sybil_exp::alloc::CountingAlloc;

/// One engine cell: `(algo, T, horizon, seed)`.
type Cell = (Algo, f64, f64, u64);

/// Where a golden scenario's workload comes from.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// Gnutella cells replayed one after another from the in-memory
    /// workload cache.
    Gnutella(&'static [Cell]),
    /// One Ergo cell at `T = 4096`, seed 1, over `networks::millions(ids)`
    /// to `horizon`: written in the SYBWKLD0 format, then streamed back
    /// through `DiskWorkload` (`shards: None`) or through
    /// `ShardedWorkload::from_disk` with that many shards.
    Disk { ids: u64, horizon: f64, shards: Option<usize> },
}

/// The counters a golden run must reproduce.
#[derive(Clone, Copy, Default)]
struct Fingerprint {
    events: u64,
    good_joins_admitted: u64,
    bad_joins_admitted: u64,
    purges: u64,
    good_spend: f64,
    adv_spend: f64,
}

impl Fingerprint {
    /// Adds one cell's report (spend sums accumulate in cell order).
    fn add(&mut self, report: &SimReport) {
        self.events += report.events_processed;
        self.good_joins_admitted += report.good_joins_admitted;
        self.bad_joins_admitted += report.bad_joins_admitted;
        self.purges += report.purges;
        self.good_spend += report.ledger.good_total().value();
        self.adv_spend += report.ledger.adversary_total().value();
    }
}

/// How many steady-state allocations a golden scenario's event loop may
/// make (summed over its cells, minimum over two runs).
#[derive(Clone, Copy, Debug)]
enum Budget {
    /// None at all: the zero-allocation hot-path contract.
    Zero,
    /// No growth past the committed count, with a slack of one allocation
    /// per [`SLACK_EVENTS`] events. The slack absorbs allocations whose
    /// count depends on thread scheduling (the coordinator's channel
    /// internals at S > 1: `macro_scale_s4` committed 59 from a one-core
    /// run and measures 60–61 on two cores shared with the other tests)
    /// and still catches a reintroduced per-event allocation, which costs
    /// at least one per event.
    NoGrowth(u64),
}

/// Events per allowed extra allocation under [`Budget::NoGrowth`]: the
/// 0.001 allocations/event slack of the old benchmark comparison gate.
const SLACK_EVENTS: u64 = 1000;

/// A golden scenario: its workload, the fingerprint it must reproduce,
/// and its loop-allocation budget.
struct Golden {
    name: &'static str,
    source: Source,
    expect: Fingerprint,
    budget: Budget,
}

/// The `macro_sweep` grid: a miniature Figure-8 sweep.
const SWEEP: [Cell; 12] = [
    (Algo::Ergo, 0.0, 1000.0, 1),
    (Algo::Ergo, 64.0, 1000.0, 1),
    (Algo::Ergo, 4096.0, 1000.0, 1),
    (Algo::Ergo, 65_536.0, 1000.0, 1),
    (Algo::CCom, 0.0, 1000.0, 1),
    (Algo::CCom, 64.0, 1000.0, 1),
    (Algo::CCom, 4096.0, 1000.0, 1),
    (Algo::CCom, 65_536.0, 1000.0, 1),
    (Algo::SybilControl, 0.0, 1000.0, 1),
    (Algo::SybilControl, 64.0, 1000.0, 1),
    (Algo::SybilControl, 4096.0, 1000.0, 1),
    (Algo::SybilControl, 65_536.0, 1000.0, 1),
];

/// The 10⁷-ID shard-scaling workload every `macro_scale_s*` scenario
/// replays; the shard count must not change the fingerprint.
const SCALE_IDS: u64 = 10_000_000;
const SCALE_HORIZON: f64 = 300.0;
const SCALE: Fingerprint = Fingerprint {
    events: 754_130,
    good_joins_admitted: 362_378,
    bad_joins_admitted: 256_531,
    purges: 1,
    good_spend: 20_363_090.0,
    adv_spend: 1_228_795.0,
};

/// The golden table. The three single-shard core scenarios must run
/// their event loops allocation-free. The disk-streamed ones keep their
/// measured remainders as a no-growth budget: lazily allocated
/// admission segments (`macro_millions`), inline shard-producer queue
/// growth (`macro_scale_s1`) and the coordinator's channel-side
/// allocations (`macro_scale_s2`, `_s4`).
static GOLDENS: [Golden; 7] = [
    Golden {
        name: "macro_sweep",
        source: Source::Gnutella(&SWEEP),
        expect: Fingerprint {
            events: 826_613,
            good_joins_admitted: 12_192,
            bad_joins_admitted: 143_760_017,
            purges: 82_148,
            good_spend: 895_810_506.0,
            adv_spend: 209_087_977.0,
        },
        budget: Budget::Zero,
    },
    Golden {
        name: "gnutella_ergo_t1024",
        source: Source::Gnutella(&[(Algo::Ergo, 1024.0, 2000.0, 1)]),
        expect: Fingerprint {
            events: 204_342,
            good_joins_admitted: 1979,
            bad_joins_admitted: 742_318,
            purges: 833,
            good_spend: 8_214_289.0,
            adv_spend: 2_047_992.0,
        },
        budget: Budget::Zero,
    },
    Golden {
        name: "gnutella_sybilcontrol_t64",
        source: Source::Gnutella(&[(Algo::SybilControl, 64.0, 500.0, 2)]),
        expect: Fingerprint {
            events: 34_154,
            good_joins_admitted: 526,
            bad_joins_admitted: 31_000,
            purges: 0,
            good_spend: 9_946_505.0,
            adv_spend: 32_000.0,
        },
        budget: Budget::Zero,
    },
    Golden {
        name: "macro_millions",
        source: Source::Disk { ids: 1_000_000, horizon: 500.0, shards: None },
        expect: Fingerprint {
            events: 170_730,
            good_joins_admitted: 60_392,
            bad_joins_admitted: 427_567,
            purges: 6,
            good_spend: 7_060_606.0,
            adv_spend: 2_047_998.0,
        },
        budget: Budget::NoGrowth(1271),
    },
    Golden {
        name: "macro_scale_s1",
        source: Source::Disk { ids: SCALE_IDS, horizon: SCALE_HORIZON, shards: Some(1) },
        expect: SCALE,
        budget: Budget::NoGrowth(9896),
    },
    Golden {
        name: "macro_scale_s2",
        source: Source::Disk { ids: SCALE_IDS, horizon: SCALE_HORIZON, shards: Some(2) },
        expect: SCALE,
        budget: Budget::NoGrowth(59),
    },
    Golden {
        name: "macro_scale_s4",
        source: Source::Disk { ids: SCALE_IDS, horizon: SCALE_HORIZON, shards: Some(4) },
        expect: SCALE,
        budget: Budget::NoGrowth(59),
    },
];

/// Looks up a golden scenario by name.
fn golden(name: &str) -> &'static Golden {
    GOLDENS.iter().find(|g| g.name == name).unwrap_or_else(|| panic!("no golden named {name}"))
}

/// The `networks::millions` workload (seed 1) of a disk-sourced golden
/// scenario, in a temporary SYBWKLD0 file deleted on drop. The in-memory
/// schedule is dropped before any replay.
struct TempWorkload(PathBuf);

impl TempWorkload {
    fn of(name: &str) -> TempWorkload {
        let Source::Disk { ids, horizon, .. } = golden(name).source else {
            panic!("{name} does not replay from disk")
        };
        let path = std::env::temp_dir()
            .join(format!("sybil_golden_{ids}_{horizon}_{}.wkld", std::process::id()));
        let workload = networks::millions(ids).generate(Time(horizon), 1);
        write_workload_file(&path, &workload)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        TempWorkload(path)
    }
}

impl Drop for TempWorkload {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// One run of a golden scenario: its fingerprint and loop allocations.
/// `disk` is the scenario's workload file for a [`Source::Disk`] source.
fn run_golden(golden: &Golden, disk: Option<&Path>) -> (Fingerprint, u64) {
    let mut fp = Fingerprint::default();
    let mut allocs = 0;
    match golden.source {
        Source::Gnutella(cells) => {
            let net = networks::gnutella();
            for &(algo, t, horizon, seed) in cells {
                let params = RunParams { horizon, seed, ..RunParams::default() };
                let (report, cell_allocs) = run_report_measured(&net, algo, t, params);
                fp.add(&report);
                allocs += cell_allocs.allocs;
            }
        }
        Source::Disk { horizon, shards, .. } => {
            let path = disk.expect("a disk scenario needs its workload file");
            let stream = DiskWorkload::open(path)
                .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
            let t = 4096.0;
            let cfg = SimConfig { horizon: Time(horizon), adv_rate: t, ..SimConfig::default() };
            let seed = defense_seed(1);
            let (report, loop_allocs) = match shards {
                None => run_report_with_measured(cfg, Algo::Ergo, t, seed, stream),
                Some(s) => run_report_with_measured(
                    cfg,
                    Algo::Ergo,
                    t,
                    seed,
                    ShardedWorkload::from_disk(stream, s),
                ),
            };
            fp.add(&report);
            allocs = loop_allocs.allocs;
        }
    }
    (fp, allocs)
}

/// Replays the named golden scenario and asserts its fingerprint and, in
/// a counting build, its allocation ceiling (minimum over two runs, since
/// a first run can pay one-time thread-local warm-up inside the loop).
fn check_golden(name: &str, disk: Option<&Path>) {
    let golden = golden(name);
    let counting = sybil_exp::counting_enabled();
    let mut min_allocs = u64::MAX;
    for run in 0..if counting { 2 } else { 1 } {
        let (got, allocs) = run_golden(golden, disk);
        let want = golden.expect;
        let ints =
            |f: &Fingerprint| (f.events, f.good_joins_admitted, f.bad_joins_admitted, f.purges);
        assert_eq!(ints(&got), ints(&want), "{name} run {run}: (events, good, bad, purges)");
        for (what, got, want) in [
            ("good_spend", got.good_spend, want.good_spend),
            ("adv_spend", got.adv_spend, want.adv_spend),
        ] {
            assert!(
                (got - want).abs() <= 1e-9 * want.abs(),
                "{name} run {run}: {what} {got} differs from the golden {want}"
            );
        }
        min_allocs = min_allocs.min(allocs);
    }
    if counting {
        let ceiling = match golden.budget {
            Budget::Zero => 0,
            Budget::NoGrowth(committed) => committed + golden.expect.events / SLACK_EVENTS,
        };
        assert!(
            min_allocs <= ceiling,
            "{name}: {min_allocs} steady-state allocation(s), over its budget of {ceiling} \
             ({:?})",
            golden.budget
        );
    } else {
        eprintln!("note: {name} ran without --features alloc-count; budget not measured");
    }
}

#[test]
fn core_scenarios_match_their_goldens() {
    for name in ["macro_sweep", "gnutella_ergo_t1024", "gnutella_sybilcontrol_t64"] {
        check_golden(name, None);
    }
}

#[test]
fn macro_millions_matches_its_golden() {
    let disk = TempWorkload::of("macro_millions");
    check_golden("macro_millions", Some(&disk.0));
}

#[test]
#[ignore = "replays a 10^7-ID workload three times: too slow for a debug build; \
            CI runs it in release with --include-ignored"]
fn macro_scale_matches_its_golden_at_every_shard_count() {
    // One workload file serves all three shard counts.
    let disk = TempWorkload::of("macro_scale_s1");
    for name in ["macro_scale_s1", "macro_scale_s2", "macro_scale_s4"] {
        check_golden(name, Some(&disk.0));
    }
}

/// A build with `--features alloc-count` must really count: otherwise
/// every budget in this file would pass on structural zeros.
#[test]
fn alloc_count_builds_measure() {
    assert_eq!(sybil_exp::counting_enabled(), cfg!(feature = "alloc-count"));
}

/// Asserts the steady-state loop of one (defense, T) cell allocates
/// nothing — when the counting allocator is registered.
fn assert_zero_budget(algo: Algo, t: f64) {
    let net = networks::gnutella();
    let params = RunParams { horizon: 1000.0, seed: 1, ..RunParams::default() };
    let (report, allocs) = run_report_measured(&net, algo, t, params);
    // The run must have actually exercised the hot path.
    assert!(
        report.good_joins_admitted + report.bad_joins_admitted > 0,
        "{algo:?} T={t}: cell admitted nothing; the budget span covered no work"
    );
    if sybil_exp::counting_enabled() {
        assert_eq!(
            allocs.allocs, 0,
            "{algo:?} T={t}: {} allocation(s) ({} bytes) in the steady-state event loop — \
             the zero-allocation contract is broken",
            allocs.allocs, allocs.bytes
        );
    } else {
        eprintln!("note: {algo:?} T={t} ran without --features alloc-count; budget not measured");
    }
}

#[test]
fn ergo_family_steady_state_allocates_nothing() {
    for t in [0.0, 1024.0, 65_536.0] {
        assert_zero_budget(Algo::Ergo, t);
        assert_zero_budget(Algo::ErgoCh1, t);
        assert_zero_budget(Algo::ErgoCh2, t);
    }
}

#[test]
fn ccom_steady_state_allocates_nothing() {
    for t in [0.0, 1024.0, 65_536.0] {
        assert_zero_budget(Algo::CCom, t);
    }
}

#[test]
fn sybilcontrol_steady_state_allocates_nothing() {
    for t in [0.0, 64.0, 4096.0] {
        assert_zero_budget(Algo::SybilControl, t);
    }
}

#[test]
fn remp_steady_state_allocates_nothing() {
    for t in [0.0, 1024.0] {
        assert_zero_budget(Algo::Remp(1e7), t);
    }
}

#[test]
fn ergo_sf_steady_state_allocates_nothing() {
    for t in [0.0, 1024.0] {
        assert_zero_budget(Algo::ErgoSf(0.9), t);
    }
}

/// Regression pin for the buffer-reuse refactor: `drain_events_into`
/// must yield exactly what the allocating `drain_events` wrapper yields —
/// same events, same order, at every drain point — and must *append* to
/// a non-empty buffer rather than clobber it.
#[test]
fn drain_events_into_matches_the_allocating_api() {
    use sybil_sim::defense::{Defense, DefenseEvent};
    use sybil_sim::time::Time;

    // Two identical defenses driven through the identical call sequence;
    // only the drain API differs.
    let mut a = sybil_defenses::ergo();
    let mut b = sybil_defenses::ergo();
    let drive = |d: &mut dyn Defense, drains: &mut Vec<Vec<DefenseEvent>>, into: bool| {
        let mut buf = Vec::new();
        d.init(Time(0.0), 50, 10);
        let mut now = 0.0;
        for step in 0..200u64 {
            now += 7.0;
            d.good_join(Time(now));
            if step % 5 == 0 {
                d.bad_join_batch(Time(now), sybil_sim::cost::Cost(100.0), 4);
            }
            if step % 3 == 0 {
                d.good_depart(Time(now), Time(now - 20.0));
            }
            if d.purge_due(Time(now)) {
                d.purge(Time(now), 2);
                if into {
                    buf.clear();
                    d.drain_events_into(&mut buf);
                    drains.push(buf.clone());
                } else {
                    drains.push(d.drain_events());
                }
            }
        }
        if into {
            buf.clear();
            d.drain_events_into(&mut buf);
            drains.push(buf);
        } else {
            drains.push(d.drain_events());
        }
    };
    let mut via_vec = Vec::new();
    let mut via_into = Vec::new();
    drive(&mut a, &mut via_vec, false);
    drive(&mut b, &mut via_into, true);
    assert!(via_vec.iter().map(Vec::len).sum::<usize>() > 0, "the drive produced no events");
    assert_eq!(via_vec, via_into, "drain_events and drain_events_into diverged");

    // Append semantics: draining into a non-empty buffer keeps what was
    // already there and appends after it.
    let mut c = sybil_defenses::ergo();
    c.init(Time(0.0), 50, 10);
    for step in 1..=100u64 {
        c.good_join(Time(step as f64 * 7.0));
    }
    let now = Time(700.0);
    if c.purge_due(now) {
        c.purge(now, 0);
    }
    let sentinel = DefenseEvent::PurgeCompleted { at: Time(-1.0), members_after: 999 };
    let mut seeded = vec![sentinel];
    c.drain_events_into(&mut seeded);
    assert_eq!(seeded[0], sentinel, "drain_events_into must append, not clobber");
}
