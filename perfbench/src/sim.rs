//! The two simulator workloads.
//!
//! * `sim_sweep` — a Figure-8 grid through the `sybil-exp` runner and
//!   pool: attack-heavy cells, so time goes to defense admit/purge,
//!   adversary turns and the event queue, and the slowest cell sets the
//!   grid's wall.
//! * `sim_stream` — one 10⁷-initial-ID churn schedule replayed from disk
//!   with Ergo under a light attack: time goes to workload decode, the
//!   admission map and departures.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use sybil_bench::sweep::{check_invariant, run_report_with, t_grid, Algo, AlgoVisitor};
use sybil_churn::model::ChurnModel;
use sybil_churn::networks;
use sybil_exp::spec::{CellSpec, AXIS_ALGO, AXIS_T};
use sybil_exp::{ExperimentSpec, RunSummary, WorkloadCache};
use sybil_sim::adversary::BudgetJoiner;
use sybil_sim::defense::Defense;
use sybil_sim::{
    write_workload_file, DiskWorkload, ShardedWorkload, SimConfig, SimReport, Simulation, Time,
    WorkloadSource,
};

use crate::trace::{site_rows, SimProbe, SimTrace, TimedAdversary, TimedDefense, TimedSource};
use crate::SetupTimes;

/// The paper's simulated horizon per data point (Section 10.1).
pub const SWEEP_HORIZON: f64 = 10_000.0;
/// Initial IDs of the `sim_stream` schedule.
pub const STREAM_IDS: u64 = 10_000_000;
/// `sim_stream` horizon: about 5·10⁶ events, about a second per replay.
pub const STREAM_HORIZON: f64 = 2_000.0;
/// `sim_stream` adversary spend rate.
pub const STREAM_T: f64 = 4096.0;

/// The Figure 8 roster (ERGO, CCOM, SybilControl, REMP-1e7, ERGO-SF(98)).
pub fn roster() -> Vec<Algo> {
    sybil_bench::figure8::roster()
}

/// The sweep's network: Gnutella, the paper's fully specified model.
pub fn sweep_network() -> ChurnModel {
    networks::gnutella()
}

/// The sweep's experiment spec for `seed`: one network × roster × T grid,
/// one trial.
pub fn sweep_spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec::three_axis(
        "sim_sweep",
        vec![sweep_network().name.to_string()],
        roster().iter().map(Algo::label).collect(),
        t_grid(),
        1,
        SWEEP_HORIZON,
        SimConfig::default().kappa,
        seed,
    )
}

fn sweep_config(spec: &ExperimentSpec, t: f64) -> SimConfig {
    SimConfig {
        horizon: Time(spec.horizon),
        kappa: spec.kappa,
        adv_rate: t,
        ..SimConfig::default()
    }
}

fn cache_dir(dir: &Path) -> PathBuf {
    dir.join("cache")
}

/// `sim_sweep` set-up: warms an empty workload cache with the grid's
/// workload. With `split`, also times generation and the file write on
/// their own (the traced run's `churn`/`workload_io` layers).
pub fn sweep_setup(dir: &Path, seed: u64, split: bool) -> std::io::Result<SetupTimes> {
    let spec = sweep_spec(seed);
    let net = sweep_network();
    let horizon = Time(spec.horizon);
    let wseed = spec.workload_seed(0);
    let _ = std::fs::remove_dir_all(cache_dir(dir));
    let start = Instant::now();
    let cache = WorkloadCache::open(cache_dir(dir))?;
    cache.get_or_create(&net, horizon, wseed)?;
    let warm_s = start.elapsed().as_secs_f64();
    let mut times = SetupTimes { total_s: warm_s, warm_s, ..SetupTimes::default() };
    if split {
        let start = Instant::now();
        let workload = net.generate(horizon, wseed);
        times.generate_s = start.elapsed().as_secs_f64();
        let path = dir.join("split.wkld");
        let start = Instant::now();
        write_workload_file(&path, &workload)?;
        times.write_s = start.elapsed().as_secs_f64();
        std::fs::remove_file(path)?;
    }
    Ok(times)
}

/// One cell's result.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Cell id in the results store.
    pub id: String,
    /// Fingerprint of the cell's full `SimReport`.
    pub fingerprint: String,
    /// Events the engine processed.
    pub events: u64,
    /// Wall seconds of the cell (workload open through report).
    pub wall_s: f64,
    /// Whether the cell's algorithm is in the Ergo family.
    pub ergo_family: bool,
    /// Whether Lemma 9's bound (bad fraction < 3κ = 1/6) held.
    pub lemma9: bool,
    /// Largest bad fraction seen.
    pub max_bad_fraction: f64,
    /// Largest event-queue length.
    pub peak_queue_len: usize,
    /// Admission-map bytes at the end of the run.
    pub admission_bytes: usize,
    /// Bytes the workload stream held.
    pub stream_bytes: usize,
}

/// One run of the whole grid.
#[derive(Debug)]
pub struct SweepUnit {
    /// Wall seconds of the grid.
    pub wall_s: f64,
    /// Cells in grid order (quarantined cells are missing).
    pub cells: Vec<CellResult>,
    /// The runner's summary (pool and cache stats, quarantined cells).
    pub summary: RunSummary,
    /// Engine callback aggregates (traced runs only).
    pub trace: SimTrace,
    /// Seconds inside `Simulation::run` summed over cells (traced runs).
    pub run_s: f64,
    /// Per-cell call-site rows of the written-out trace (traced runs).
    pub rows: Vec<String>,
}

/// Runs one cell: untraced through the program's own
/// [`run_report_with`], traced through the forwarders.
pub fn run_cell<W: WorkloadSource>(
    cfg: SimConfig,
    algo: Algo,
    t: f64,
    defense_seed: u64,
    source: W,
    probe: Option<&Rc<SimProbe>>,
) -> (SimReport, f64) {
    match probe {
        None => (run_report_with(cfg, algo, t, defense_seed, source), 0.0),
        Some(probe) => algo.dispatch(defense_seed, Traced { cfg, t, source, probe }),
    }
}

/// The traced twin of `run_report_with`: the same simulation with every
/// pluggable part behind a timing forwarder. Returns the report and the
/// seconds spent in `Simulation::run`.
struct Traced<'a, W> {
    cfg: SimConfig,
    t: f64,
    source: W,
    probe: &'a Rc<SimProbe>,
}

impl<W: WorkloadSource> AlgoVisitor for Traced<'_, W> {
    type Out = (SimReport, f64);
    fn visit<D: Defense + 'static>(self, defense: D) -> (SimReport, f64) {
        let p = self.probe;
        let sim = Simulation::new(
            self.cfg,
            TimedDefense::new(defense, Rc::clone(p)),
            TimedAdversary::new(BudgetJoiner::new(self.t), Rc::clone(p)),
            TimedSource::new(self.source, Rc::clone(p)),
        );
        let start = Instant::now();
        let report = sim.run();
        (report, start.elapsed().as_secs_f64())
    }
}

/// Fingerprint of a report's every field, bit for bit. A word-wise
/// multiply-rotate hash rather than SHA-256: heavy-attack cells log
/// 10⁵–10⁶ purge times, and hashing them must not cost the measured grid
/// noticeable time. It only compares runs of one process.
pub fn report_fingerprint(report: &SimReport) -> String {
    let SimReport {
        defense,
        adversary,
        horizon,
        ledger,
        good_joins_admitted,
        good_joins_refused,
        good_departures,
        bad_joins_admitted,
        bad_join_attempts,
        purges,
        purges_skipped,
        max_bad_fraction,
        mean_bad_fraction,
        final_members,
        final_bad,
        events_processed,
        peak_queue_len,
        adversary_turn_truncations,
        purge_cascade_truncations,
        timeline_decimations,
        good_join_times_dropped,
        admission_bytes,
        workload_stream_bytes,
        estimates,
        purge_times,
        good_join_times,
        timeline,
    } = report;
    let mut h: u64 = 0;
    let mut word = |x: u64| h = (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    let scalars = format!("{defense}|{adversary}|{ledger:?}");
    scalars.bytes().for_each(|b| word(u64::from(b)));
    for x in [horizon, max_bad_fraction, mean_bad_fraction] {
        word(x.to_bits());
    }
    for x in [
        *good_joins_admitted,
        *good_joins_refused,
        *good_departures,
        *bad_joins_admitted,
        *bad_join_attempts,
        *purges,
        *purges_skipped,
        *final_members,
        *final_bad,
        *events_processed,
        *peak_queue_len as u64,
        *adversary_turn_truncations,
        *purge_cascade_truncations,
        *timeline_decimations,
        *good_join_times_dropped,
        *admission_bytes as u64,
        *workload_stream_bytes as u64,
    ] {
        word(x);
    }
    for e in estimates {
        [e.start.0, e.end.0, e.estimate].into_iter().for_each(|x| word(x.to_bits()));
    }
    word(purge_times.len() as u64);
    purge_times.iter().for_each(|t| word(t.0.to_bits()));
    word(good_join_times.len() as u64);
    good_join_times.iter().for_each(|t| word(t.0.to_bits()));
    for p in timeline {
        [p.at.0, p.good_spend, p.adv_spend].into_iter().for_each(|x| word(x.to_bits()));
        word(p.members);
        word(p.bad);
    }
    format!("{h:016x}")
}

/// Fingerprint of a report minus the two representation gauges that
/// legitimately differ between the plain and the sharded (merged) loop:
/// the stream's buffers live on the shard threads, and the merged loop's
/// queue holds only internal events. Every behavioural field counts.
pub fn shard_fingerprint(report: &SimReport) -> String {
    report_fingerprint(&SimReport { workload_stream_bytes: 0, peak_queue_len: 0, ..report.clone() })
}

/// Runs the grid once into a fresh results store.
pub fn sweep_unit(dir: &Path, seed: u64, traced: bool) -> std::io::Result<SweepUnit> {
    let spec = sweep_spec(seed);
    let net = sweep_network();
    let cache = WorkloadCache::open(cache_dir(dir))?;
    let store_dir = dir.join("store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let results: Mutex<HashMap<String, (CellResult, SimTrace, f64)>> = Mutex::default();
    let algos: HashMap<String, Algo> = roster().into_iter().map(|a| (a.label(), a)).collect();
    let run = |cell: &CellSpec| -> Vec<(String, f64)> {
        let start = Instant::now();
        let algo = algos[cell.str_value(AXIS_ALGO)];
        let t = cell.f64_value(AXIS_T);
        let disk = cache
            .get_or_create(&net, Time(spec.horizon), spec.workload_seed(0))
            .unwrap_or_else(|e| panic!("workload cache failed for {}: {e}", cell.id()));
        let probe = traced.then(SimProbe::new);
        let (report, run_s) =
            run_cell(sweep_config(&spec, t), algo, t, spec.defense_seed(0), disk, probe.as_ref());
        let wall_s = start.elapsed().as_secs_f64();
        let result = CellResult {
            id: cell.id(),
            fingerprint: report_fingerprint(&report),
            events: report.events_processed,
            wall_s,
            ergo_family: matches!(algo, Algo::Ergo | Algo::CCom | Algo::ErgoSf(_)),
            lemma9: check_invariant(&report, spec.kappa),
            max_bad_fraction: report.max_bad_fraction,
            peak_queue_len: report.peak_queue_len,
            admission_bytes: report.admission_bytes,
            stream_bytes: report.workload_stream_bytes,
        };
        let trace = probe.map(|p| p.snapshot()).unwrap_or_default();
        let fields = vec![
            ("events".to_string(), report.events_processed as f64),
            ("good_rate".to_string(), report.good_spend_rate()),
            ("max_bad_fraction".to_string(), report.max_bad_fraction),
        ];
        results.lock().expect("cell results poisoned").insert(cell.id(), (result, trace, run_s));
        fields
    };
    let start = Instant::now();
    let outcome = sybil_exp::run_spec_grid(
        &spec,
        "perfbench sim_sweep",
        &store_dir,
        Some(&cache),
        crate::nproc(),
        run,
    )?;
    let wall_s = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut results = results.into_inner().expect("cell results poisoned");
    let mut unit = SweepUnit {
        wall_s,
        cells: Vec::new(),
        summary: outcome.summary,
        trace: SimTrace::default(),
        rows: Vec::new(),
        run_s: 0.0,
    };
    for cell in spec.cells() {
        if let Some((result, trace, run_s)) = results.remove(&cell.id()) {
            unit.rows.extend(site_rows(&result.id, &trace));
            unit.cells.push(result);
            unit.trace.absorb(&trace);
            unit.run_s += run_s;
        }
    }
    Ok(unit)
}

/// `sim_stream` set-up: generates the schedule and writes it in SYBWKLD0
/// format to the work directory.
pub fn stream_setup(dir: &Path, seed: u64) -> std::io::Result<SetupTimes> {
    let start = Instant::now();
    let workload = networks::millions(STREAM_IDS).generate(Time(STREAM_HORIZON), seed);
    let generate_s = start.elapsed().as_secs_f64();
    let write_start = Instant::now();
    write_workload_file(stream_path(dir), &workload)?;
    let write_s = write_start.elapsed().as_secs_f64();
    drop(workload);
    Ok(SetupTimes { total_s: start.elapsed().as_secs_f64(), generate_s, write_s, warm_s: 0.0 })
}

fn stream_path(dir: &Path) -> PathBuf {
    dir.join("stream.wkld")
}

/// One replay of the `sim_stream` schedule.
#[derive(Debug)]
pub struct StreamUnit {
    /// Wall seconds, workload open through report.
    pub wall_s: f64,
    /// Seconds inside `Simulation::run` (traced runs).
    pub run_s: f64,
    /// The report.
    pub report: SimReport,
    /// Engine callback aggregates (traced runs only).
    pub trace: SimTrace,
}

/// Replays the schedule once: with Ergo at `T = 4096`, through the plain
/// disk stream when `shards == 1`, else through a [`ShardedWorkload`].
pub fn stream_unit(
    dir: &Path,
    seed: u64,
    shards: usize,
    traced: bool,
) -> std::io::Result<StreamUnit> {
    let start = Instant::now();
    let disk = DiskWorkload::open(stream_path(dir))?;
    let cfg =
        SimConfig { horizon: Time(STREAM_HORIZON), adv_rate: STREAM_T, ..SimConfig::default() };
    let probe = traced.then(SimProbe::new);
    let defense_seed = sybil_exp::defense_seed(seed);
    let (report, run_s) = match shards {
        1 => run_cell(cfg, Algo::Ergo, STREAM_T, defense_seed, disk, probe.as_ref()),
        _ => {
            let sharded = ShardedWorkload::from_disk(disk, shards);
            run_cell(cfg, Algo::Ergo, STREAM_T, defense_seed, sharded, probe.as_ref())
        }
    };
    let trace = probe.map(|p| p.snapshot()).unwrap_or_default();
    Ok(StreamUnit { wall_s: start.elapsed().as_secs_f64(), run_s, report, trace })
}
