//! The repository benchmark: four workloads over the simulator and the
//! admission gate, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `perfbench/README.md`.

pub mod gate;
pub mod report;
pub mod run;
pub mod sim;
pub mod trace;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A Figure-8 grid through the experiment runner and pool.
    SimSweep,
    /// A 10⁷-initial-ID schedule replayed from disk.
    SimStream,
    /// The gate's decision path over the loopback, closed loop.
    GateReplay,
    /// The gate over TCP, open loop.
    GateTcp,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::SimSweep, Workload::SimStream, Workload::GateReplay, Workload::GateTcp];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSweep => "sim_sweep",
            Workload::SimStream => "sim_stream",
            Workload::GateReplay => "gate_replay",
            Workload::GateTcp => "gate_tcp",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups per run; `setup_s` is their median.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::SimStream => 3,
            _ => 15,
        }
    }
}

/// Timings of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Whole set-up, seconds.
    pub total_s: f64,
    /// Churn generation, seconds.
    pub generate_s: f64,
    /// Writing the SYBWKLD0 file, seconds.
    pub write_s: f64,
    /// Warming the workload cache, seconds.
    pub warm_s: f64,
}

/// What a run measures with.
#[derive(Clone, Debug)]
pub struct Params {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Scratch directory for workload files, caches and stores.
    pub dir: std::path::PathBuf,
}

/// Worker threads, client threads and shards scale with this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
