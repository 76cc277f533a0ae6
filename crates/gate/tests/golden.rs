//! Gate goldens: a full-size churn replay whose decision-log SHA-256 and
//! counters pin the admission service's behaviour.
//!
//! A ~110k-session workload is written in the SYBWKLD0 format and read
//! back through `DiskWorkload` (the loader a deployment replays captured
//! traces with), then replayed over the loopback transport, honest and
//! with 30 % garbage or replayed PoW. Each replay runs through the
//! monolithic `GateService` and through a 4-shard `ShardedGate`, and both
//! must reproduce the golden fingerprint and counters. A drift means the
//! admission decisions changed, not just their speed. The workload stays
//! at full size: a smaller one has different fingerprints.
//!
//! The replays take tens of seconds in release and far longer in a debug
//! build, so they are `#[ignore]`d; run them with
//! `cargo test --release -p sybil-gate -- --include-ignored`.

use sybil_churn::{ArrivalProcess, ChurnModel, SessionModel};
use sybil_crypto::{hex, Digest};
use sybil_gate::memhard::MemHardParams;
use sybil_gate::{
    replay, GateConfig, GateCounters, GateService, ReplayConfig, ReplayReport, ShardedGate,
};
use sybil_sim::{write_workload_file, DiskWorkload, Time, WorkloadSource};

const HORIZON: Time = Time(1100.0);
const WORKLOAD_SEED: u64 = 41;
const REPLAY_SEED: u64 = 23;

fn model() -> ChurnModel {
    ChurnModel {
        name: "gate",
        initial_size: 2000,
        arrival: ArrivalProcess::Poisson { rate: 100.0 },
        session: SessionModel::Exponential { mean: 600.0 },
    }
}

fn gate_cfg(initial_size: u64) -> GateConfig {
    GateConfig {
        difficulty_floor: 8,
        difficulty_cap: 1 << 16,
        mine_bits: 2,
        mem: MemHardParams { blocks: 32, passes: 1 },
        initial_size,
        ..GateConfig::default()
    }
}

/// What a golden replay must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outcome {
    connections: u64,
    granted: u64,
    admitted: u64,
    rejected_pow: u64,
    refused_mine: u64,
    departed: u64,
    pow_verifications: u64,
    mem_verifications: u64,
    client_pow_work: u64,
    mine_attempts: u64,
}

impl Outcome {
    fn of(report: &ReplayReport, c: GateCounters) -> Outcome {
        Outcome {
            connections: report.connections,
            granted: c.granted,
            admitted: c.admitted,
            rejected_pow: c.rejected_pow,
            refused_mine: c.refused_mine,
            departed: c.departed,
            pow_verifications: c.pow_verifications,
            mem_verifications: c.mem_verifications,
            client_pow_work: report.client_pow_work,
            mine_attempts: report.mine_attempts,
        }
    }
}

/// Replays the golden workload with `adversarial_fraction` through both
/// services and asserts each reproduces `fingerprint` and `want`.
fn check_replay(adversarial_fraction: f64, fingerprint: &str, want: Outcome) {
    let workload = model().generate(HORIZON, WORKLOAD_SEED);
    assert!(
        workload.session_count() >= 100_000,
        "the golden workload must open over 10^5 sessions, got {}",
        workload.session_count()
    );
    let path = std::env::temp_dir()
        .join(format!("sybil_gate_golden_{}_{adversarial_fraction}.sybwkld", std::process::id()));
    write_workload_file(&path, &workload).expect("write the golden workload");
    let initial = workload.initial_size();
    drop(workload);

    let cfg = ReplayConfig { horizon: HORIZON, adversarial_fraction, seed: REPLAY_SEED };
    let open = || DiskWorkload::open(&path).expect("reopen the golden workload");
    let check = |name: &str, report: &ReplayReport, counters, digest: Digest| {
        assert_eq!(hex::encode(digest.as_bytes()), fingerprint, "{name}: decision fingerprint");
        assert_eq!(Outcome::of(report, counters), want, "{name}: counters");
    };

    let (gate, report) = replay(open(), GateService::new(gate_cfg(initial)), &cfg);
    check("GateService", &report, gate.counters(), gate.fingerprint());
    let (gate, report) = replay(open(), ShardedGate::new(gate_cfg(initial), 4), &cfg);
    check("ShardedGate(4)", &report, gate.counters(), gate.fingerprint());
    std::fs::remove_file(&path).ok();
}

#[test]
#[ignore = "full-size replay: tens of seconds in release, far longer in debug"]
fn honest_replay_matches_its_golden() {
    check_replay(
        0.0,
        "639337e9dfc51ab936c6b0787b93dccd43369eca5883c1dd5b75951f9f4c228f",
        Outcome {
            connections: 171_737,
            granted: 110_245,
            admitted: 110_245,
            rejected_pow: 0,
            refused_mine: 0,
            departed: 61_492,
            pow_verifications: 110_245,
            mem_verifications: 110_245,
            client_pow_work: 915_602,
            mine_attempts: 440_516,
        },
    );
}

#[test]
#[ignore = "full-size replay: tens of seconds in release, far longer in debug"]
fn adversarial_replay_matches_its_golden() {
    check_replay(
        0.3,
        "6e6943e58cef386b58449fb7b722259a21c1d7d24cd2ff0882839c0c5ec526eb",
        Outcome {
            connections: 153_758,
            granted: 81_005,
            admitted: 77_097,
            rejected_pow: 29_240,
            refused_mine: 0,
            departed: 43_513,
            pow_verifications: 110_245,
            mem_verifications: 77_097,
            client_pow_work: 640_289,
            mine_attempts: 308_746,
        },
    );
}
