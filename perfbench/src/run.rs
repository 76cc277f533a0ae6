//! Set-up, the untraced measurement and the traced run of each workload.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sybil_gate::wire::Frame;

use crate::gate::{self, OpenLoop, ReplayUnit, Server, Step};
use crate::report::{median, peak_rss_mib, quantile, Outcome};
use crate::sim::{self, SweepUnit};
use crate::trace::{self, GateOp, GateProbe, GateSpan, SimTrace, Site, TimedShared};
use crate::{nproc, Params, SetupTimes, Workload};

/// One set-up of `w`, as the `setup_s` metric times it.
pub fn setup(w: Workload, p: &Params) -> io::Result<SetupTimes> {
    match w {
        Workload::SimSweep => sim::sweep_setup(&p.dir, p.seed, false),
        Workload::SimStream => sim::stream_setup(&p.dir, p.seed),
        Workload::GateReplay => gate::replay_setup(&p.dir, p.seed),
        Workload::GateTcp => gate::tcp_setup(p.seed, p.seconds),
    }
}

/// Writes back every file under `dir`. Set-up leaves up to 10⁸ bytes of
/// freshly written workload in the page cache; flushing it before the
/// measurement keeps the kernel's writeback from competing with it.
fn flush_dir(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            flush_dir(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    Ok(())
}

/// Repeats `unit` at least twice, then while another one fits in
/// `seconds`.
fn repeat<U>(seconds: f64, mut unit: impl FnMut() -> io::Result<(U, f64)>) -> io::Result<Vec<U>> {
    let start = Instant::now();
    let mut units = Vec::new();
    loop {
        let (u, wall) = unit()?;
        units.push(u);
        if units.len() >= 2 && start.elapsed().as_secs_f64() + wall > seconds {
            return Ok(units);
        }
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The untraced measurement of `w` (its set-up already done in
/// `p.dir`): every end-to-end metric except `setup_s`, and the output
/// checks.
pub fn measure(w: Workload, p: &Params) -> io::Result<Outcome> {
    flush_dir(&p.dir)?;
    let mut out = match w {
        Workload::SimSweep => measure_sweep(p)?,
        Workload::SimStream => measure_stream(p)?,
        Workload::GateReplay => measure_replay(p)?,
        Workload::GateTcp => measure_tcp(p)?.0,
    };
    out.put("peak_rss_mib", peak_rss_mib(), 1);
    Ok(out)
}

fn check_sweep(out: &mut Outcome, unit: &SweepUnit, reference: &SweepUnit, what: &str) {
    let fps = |u: &SweepUnit| u.cells.iter().map(|c| c.fingerprint.clone()).collect::<Vec<_>>();
    out.check(fps(unit) == fps(reference), || format!("sim_sweep: {what} SimReports differ"));
    for cell in &unit.cells {
        out.check(!cell.ergo_family || cell.lemma9, || {
            format!(
                "sim_sweep: Lemma 9 violated in {} (bad fraction {})",
                cell.id, cell.max_bad_fraction
            )
        });
    }
}

/// Records `latency_p50_us` and `latency_p90_us`, and the (ungated) p99
/// beside them: each unit's percentile over its samples (µs), then the
/// median over units, so a disturbance confined to one unit of the run
/// cannot move the result.
fn put_latency(out: &mut Outcome, units_us: &[Vec<f64>]) {
    let n = units_us.iter().map(Vec::len).sum::<usize>() as u64;
    for (name, q) in [("latency_p50_us", 0.5), ("latency_p90_us", 0.9), ("latency_p99_us", 0.99)] {
        let per_unit: Vec<f64> = units_us.iter().map(|u| quantile(u, q)).collect();
        out.put(name, median(&per_unit), n);
    }
}

fn measure_sweep(p: &Params) -> io::Result<Outcome> {
    let units = repeat(p.seconds, || {
        let u = sim::sweep_unit(&p.dir, p.seed, false)?;
        let wall = u.wall_s;
        Ok((u, wall))
    })?;
    let mut out = Outcome::default();
    let rates: Vec<f64> = units
        .iter()
        .map(|u| u.cells.iter().map(|c| c.events).sum::<u64>() as f64 / u.wall_s)
        .collect();
    let events: u64 = units.iter().flat_map(|u| &u.cells).map(|c| c.events).sum();
    out.put("throughput_per_s", median(&rates), events);
    let walls: Vec<Vec<f64>> =
        units.iter().map(|u| u.cells.iter().map(|c| c.wall_s * 1e6).collect()).collect();
    put_latency(&mut out, &walls);
    for u in &units {
        out.attempted += u.summary.cells_total as u64;
        out.failed += u.summary.quarantined.len() as u64;
        out.check(u.cells.len() == u.summary.cells_total, || {
            format!("sim_sweep: {} of {} cells finished", u.cells.len(), u.summary.cells_total)
        });
        check_sweep(&mut out, u, &units[0], "repeated");
    }
    Ok(out)
}

/// Most replays a round runs at once (a `sim_stream` replay holds about
/// 180 MiB).
const MAX_CONCURRENT: usize = 4;

/// Runs `unit` on `nproc` threads at once, at most [`MAX_CONCURRENT`]. A
/// shared host runs its vCPUs at different speeds at any one time, and a
/// single thread's speed follows whichever it lands on; several cores at
/// once average over them.
fn on_every_core<U: Send>(unit: impl Fn() -> io::Result<U> + Sync) -> io::Result<Vec<U>> {
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..nproc().min(MAX_CONCURRENT)).map(|_| s.spawn(&unit)).collect();
        threads.into_iter().map(|t| t.join().expect("a measuring thread panicked")).collect()
    })
}

fn measure_stream(p: &Params) -> io::Result<Outcome> {
    let rounds = repeat(p.seconds, || {
        let start = Instant::now();
        let replays = on_every_core(|| sim::stream_unit(&p.dir, p.seed, 1, false))?;
        let wall = start.elapsed().as_secs_f64();
        Ok(((replays, wall), wall))
    })?;
    let mut out = Outcome::default();
    let events = |r: &[sim::StreamUnit]| r.iter().map(|u| u.report.events_processed).sum::<u64>();
    let rates: Vec<f64> = rounds.iter().map(|(r, wall)| events(r) as f64 / wall).collect();
    out.put("throughput_per_s", median(&rates), rounds.iter().map(|(r, _)| events(r)).sum());
    // The replays are the samples: a replay's wall is the latency of
    // consuming the whole schedule.
    let walls: Vec<Vec<f64>> =
        rounds.iter().map(|(r, _)| r.iter().map(|u| u.wall_s * 1e6).collect()).collect();
    put_latency(&mut out, &walls);
    let units: Vec<&sim::StreamUnit> = rounds.iter().flat_map(|(r, _)| r).collect();
    out.attempted = units.len() as u64;
    let reference = sim::report_fingerprint(&units[0].report);
    let kappa = sybil_sim::SimConfig::default().kappa;
    for u in &units {
        out.check(sim::report_fingerprint(&u.report) == reference, || {
            "sim_stream: repeated SimReports differ".to_string()
        });
        out.check(sybil_bench::sweep::check_invariant(&u.report, kappa), || {
            format!("sim_stream: Lemma 9 violated (bad fraction {})", u.report.max_bad_fraction)
        });
    }
    Ok(out)
}

fn check_replay(out: &mut Outcome, unit: &ReplayUnit, reference: &ReplayUnit, what: &str) {
    out.check(unit.fingerprint == reference.fingerprint, || {
        format!("gate_replay: {what} decision fingerprints differ")
    });
    out.check(unit.counters == reference.counters, || {
        format!("gate_replay: {what} counters differ")
    });
}

fn measure_replay(p: &Params) -> io::Result<Outcome> {
    let rounds = repeat(p.seconds, || {
        let start = Instant::now();
        let replays = on_every_core(|| gate::replay_unit(&p.dir, p.seed, None))?;
        Ok((replays, start.elapsed().as_secs_f64()))
    })?;
    let mut out = Outcome::default();
    // Each replay is the same decisions. A round's figure is over its
    // concurrent replays; the result is the median over rounds, so one
    // disturbed round cannot move it.
    let per_round =
        |f: &dyn Fn(&[ReplayUnit]) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    let decisions: u64 = rounds.iter().flatten().map(|u| u.report.hist.count()).sum();
    // Decisions over summed decision time: one core's decision capacity.
    let rate = |r: &[ReplayUnit]| {
        let n: u64 = r.iter().map(|u| u.report.hist.count()).sum();
        let busy: f64 =
            r.iter().map(|u| u.report.pow_handle_secs + u.report.mine_handle_secs).sum();
        n as f64 / busy
    };
    out.put("throughput_per_s", per_round(&rate), decisions);
    for (name, q) in [("latency_p50_us", 0.5), ("latency_p90_us", 0.9), ("latency_p99_us", 0.99)] {
        let mean = |r: &[ReplayUnit]| {
            r.iter().map(|u| us(u.report.hist.percentile(q) as f64)).sum::<f64>() / r.len() as f64
        };
        out.put(name, per_round(&mean), decisions);
    }
    let reference = &rounds[0][0];
    for u in rounds.iter().flatten() {
        out.attempted += u.report.hist.count();
        out.failed += u.counters.dropped + u.counters.refused_mine;
        check_replay(&mut out, u, reference, "repeated");
    }
    Ok(out)
}

fn check_tcp(out: &mut Outcome, run: &OpenLoop, c: &sybil_gate::GateCounters) {
    let t = &run.tally();
    let joins_sent = run.steps.iter().filter(|s| s.step != Step::Depart && s.rtts > 0).count();
    out.check(t.admitted == t.honest, || {
        format!("gate_tcp: {} of {} honest sessions admitted", t.admitted, t.honest)
    });
    out.check(t.attacks_closed == t.attacks, || {
        format!(
            "gate_tcp: {} of {} attacking joins closed without a reply byte",
            t.attacks_closed, t.attacks
        )
    });
    out.check(t.departs_acked == t.departs, || {
        format!("gate_tcp: {} of {} departures acked", t.departs_acked, t.departs)
    });
    let agree = c.pow_verifications == joins_sent as u64
        && c.granted == t.admitted
        && c.admitted == t.admitted
        && c.mem_verifications == t.admitted
        && c.rejected_pow == t.attacks
        && c.departed == t.departs_acked
        && c.dropped == 0
        && c.refused_mine == 0;
    out.check(agree, || {
        format!("gate_tcp: GateCounters {c:?} disagree with the client's tally {t:?}")
    });
}

/// One open-loop run against a fresh default service; `probe` wraps the
/// service in a [`TimedShared`].
fn tcp_run(
    p: &Params,
    probe: Option<&Arc<GateProbe>>,
) -> io::Result<(OpenLoop, sybil_gate::GateCounters)> {
    let schedule = gate::schedule(p.seed, gate::TCP_RATE, p.seconds, gate::SESSION_MEAN);
    let run_against = |addr| gate::run_open_loop(addr, &schedule, nproc(), p.seed);
    match probe {
        None => {
            let service = Arc::new(gate::tcp_service());
            let server = Server::start(Arc::clone(&service), gate::TCP_WORKERS)?;
            let run = run_against(server.addr());
            server.stop()?;
            gate::await_handlers(&service, Duration::from_secs(10));
            Ok((run, service.counters()))
        }
        Some(probe) => {
            let service = Arc::new(TimedShared::new(gate::tcp_service(), Arc::clone(probe)));
            let server = Server::start(Arc::clone(&service), gate::TCP_WORKERS)?;
            let run = run_against(server.addr());
            server.stop()?;
            gate::await_handlers(&service, Duration::from_secs(10));
            Ok((run, service.inner().counters()))
        }
    }
}

/// Equal windows of `gate_tcp`'s schedule by due time; each metric is the
/// median over windows.
const TCP_WINDOWS: usize = 10;

fn measure_tcp(p: &Params) -> io::Result<(Outcome, OpenLoop)> {
    let (run, counters) = tcp_run(p, None)?;
    let mut out = Outcome::default();
    // Windows by due time stand in for the units of the closed loops.
    let window = |due: Duration| {
        ((due.as_secs_f64() / p.seconds * TCP_WINDOWS as f64) as usize).min(TCP_WINDOWS - 1)
    };
    let mut admits = vec![Vec::new(); TCP_WINDOWS];
    for (due, ns) in run.admits() {
        admits[window(due)].push(us(ns as f64));
    }
    // Goodput: the open loop offers a fixed rate, so this stays at the
    // admitted share of it until the service or the clients fall behind
    // and the run outlasts its schedule.
    let tally = run.tally();
    out.put("throughput_per_s", tally.admitted as f64 / run.wall_s, tally.admitted);
    put_latency(&mut out, &admits);
    out.attempted = run.steps.len() as u64;
    out.failed = tally.failures();
    check_tcp(&mut out, &run, &counters);
    out.put("gen.lateness_p99_us", run.lateness_p99_us(), run.steps.len() as u64);
    Ok((out, run))
}

/// The traced run of `w`: an in-process set-up (its parts timed), one
/// untraced and one traced measurement unit, every per-layer metric and
/// the traced-vs-untraced output checks.
pub fn trace(w: Workload, p: &Params) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let times = match w {
        Workload::SimSweep => sim::sweep_setup(&p.dir, p.seed, true)?,
        _ => setup(w, p)?,
    };
    out.put("churn.generate_s", times.generate_s, 1);
    out.put("workload_io.write_s", times.write_s, 1);
    out.put("cache.warm_s", times.warm_s, 1);
    flush_dir(&p.dir)?;
    match w {
        Workload::SimSweep => trace_sweep(p, &mut out)?,
        Workload::SimStream => trace_stream(p, &mut out)?,
        Workload::GateReplay => {
            trace_replay(p, &mut out)?;
            tcp_layers(p, &mut out)?;
        }
        Workload::GateTcp => trace_tcp(p, &mut out)?,
    }
    Ok(out)
}

/// The per-layer metrics only the TCP path has. `gate_tcp` is not one of
/// `BENCHMARK.json`'s workloads (its tail latency follows the host's
/// scheduling stalls), so `gate_replay`'s traced run makes a traced
/// `gate_tcp` pass for them.
const TCP_ONLY: [&str; 5] = [
    "transport.connect_us",
    "transport.overhead_us",
    "transport.conns_peak",
    "transport.errors",
    "gen.lateness_p99_us",
];

fn tcp_layers(p: &Params, out: &mut Outcome) -> io::Result<()> {
    let mut tcp = Outcome::default();
    trace_tcp(p, &mut tcp)?;
    for m in tcp.metrics.into_iter().filter(|m| TCP_ONLY.contains(&m.name)) {
        out.put(m.name, m.value, m.samples);
    }
    out.check_failures.extend(tcp.check_failures);
    out.attempted += tcp.attempted;
    out.failed += tcp.failed;
    // `tcp_span` and `tcp_step` rows, apart from the replay's `span` rows.
    out.trace_rows.extend(tcp.trace_rows.into_iter().map(|row| format!("tcp_{row}")));
    Ok(())
}

fn put_overhead(out: &mut Outcome, traced_s: f64, untraced_s: f64, covered_s: f64) {
    out.put("trace.traced_s", traced_s, 1);
    out.put("trace.untraced_s", untraced_s, 1);
    out.put("trace.overhead_frac", traced_s / untraced_s - 1.0, 1);
    out.put("trace.coverage_frac", covered_s / traced_s, 1);
}

/// Engine, defense, adversary and workload metrics from `t`, for a run
/// of `events` events with `run_s` seconds inside `Simulation::run`.
fn put_engine(out: &mut Outcome, t: &SimTrace, events: u64, run_s: f64) {
    for site in Site::ALL {
        let s = t.site(site);
        let name = site.name();
        match site {
            Site::NextEvent => out.put("shard.next_event.wait_ns", s.ns as f64, s.calls),
            Site::AdvRetention | Site::NextSession | Site::NextInitial => {
                out.put(layer_name(format!("{name}.ns")), s.ns as f64, s.calls)
            }
            _ => {
                out.put(layer_name(format!("{name}.calls")), s.calls as f64, s.calls);
                out.put(layer_name(format!("{name}.ns")), s.ns as f64, s.calls);
            }
        }
    }
    let batch = t.batch_attempts.max(1) as f64;
    out.put(
        "defense.bad_join_batch.admitted_per_call",
        t.batch_admitted as f64 / batch,
        t.batch_attempts,
    );
    let self_ns = run_s * 1e9 - t.callback_ns() as f64;
    out.put("engine.self_ns_per_event", self_ns / events.max(1) as f64, events);
    out.put("engine.events", events as f64, events);
    let decode_ns = (t.site(Site::NextSession).ns + t.site(Site::NextInitial).ns).max(1) as f64;
    let bytes = (t.sessions_read * 16 + t.initials_read * 8) as f64;
    out.put(
        "workload_io.decode_mb_per_s",
        bytes / 1e6 / (decode_ns / 1e9),
        t.sessions_read + t.initials_read,
    );
}

/// The static name of the per-layer metric `name`.
fn layer_name(name: String) -> &'static str {
    crate::report::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

fn trace_sweep(p: &Params, out: &mut Outcome) -> io::Result<()> {
    let bare = sim::sweep_unit(&p.dir, p.seed, false)?;
    let traced = sim::sweep_unit(&p.dir, p.seed, true)?;
    check_sweep(out, &traced, &bare, "traced and untraced");
    out.attempted = (bare.summary.cells_total + traced.summary.cells_total) as u64;
    out.failed = (bare.summary.quarantined.len() + traced.summary.quarantined.len()) as u64;
    let events: u64 = traced.cells.iter().map(|c| c.events).sum();
    put_engine(out, &traced.trace, events, traced.run_s);
    out.trace_rows.extend(traced.rows.iter().cloned());
    let max = |f: fn(&sim::CellResult) -> f64| traced.cells.iter().map(f).fold(0.0, f64::max);
    out.put("queue.peak_len", max(|c| c.peak_queue_len as f64), traced.cells.len() as u64);
    out.put("admission.bytes", max(|c| c.admission_bytes as f64), traced.cells.len() as u64);
    out.put("workload.stream_bytes", max(|c| c.stream_bytes as f64), traced.cells.len() as u64);
    let pool = &bare.summary.pool;
    out.put("pool.idle_frac", pool.idle_fraction(), pool.workers.len() as u64);
    out.put("pool.job_imbalance", pool.job_imbalance(), pool.workers.len() as u64);
    out.put("pool.busy_s", pool.workers.iter().map(|w| w.busy_secs).sum(), pool.total_jobs());
    out.put("cache.hits", bare.summary.cache.hits as f64, 1);
    out.put("cache.misses", bare.summary.cache.misses as f64, 1);
    // Workers split the wall: the trace covers the time inside
    // `Simulation::run` (engine self time plus the timed callbacks) and
    // the idle time the pool itself measures. A cell's work outside the
    // engine (opening the cached workload, fingerprinting, the invariant
    // check, the store) is not covered.
    let tp = &traced.summary.pool;
    let workers = tp.workers.len().max(1) as f64;
    let busy: f64 = tp.workers.iter().map(|w| w.busy_secs).sum();
    let covered = (traced.run_s + (tp.wall_secs * workers - busy).max(0.0)) / workers;
    put_overhead(out, traced.wall_s, bare.wall_s, covered);
    Ok(())
}

fn trace_stream(p: &Params, out: &mut Outcome) -> io::Result<()> {
    let bare = sim::stream_unit(&p.dir, p.seed, 1, false)?;
    let traced = sim::stream_unit(&p.dir, p.seed, 1, true)?;
    // A 1-core machine still measures the merged (sharded) path.
    let shards = nproc().max(2);
    let sharded = sim::stream_unit(&p.dir, p.seed, shards, false)?;
    let sharded_traced = sim::stream_unit(&p.dir, p.seed, shards, true)?;
    out.attempted = 4;
    out.check(
        sim::report_fingerprint(&traced.report) == sim::report_fingerprint(&bare.report),
        || "sim_stream: traced SimReport differs from the untraced replay".to_string(),
    );
    let reference = sim::shard_fingerprint(&bare.report);
    for (unit, what) in [(&sharded, "sharded"), (&sharded_traced, "sharded traced")] {
        out.check(sim::shard_fingerprint(&unit.report) == reference, || {
            format!("sim_stream: {what} (S={shards}) SimReport differs from the S=1 replay")
        });
    }
    let r = &traced.report;
    put_engine(out, &traced.trace, r.events_processed, traced.run_s);
    out.trace_rows.extend(trace::site_rows("S=1", &traced.trace));
    out.trace_rows.extend(trace::site_rows(&format!("S={shards}"), &sharded_traced.trace));
    let waits = sharded_traced.trace.site(Site::NextEvent);
    out.put("shard.next_event.wait_ns", waits.ns as f64, waits.calls);
    out.put("shard.speedup", bare.wall_s / sharded.wall_s, 2);
    out.put("shard.wall_s1_s", bare.wall_s, 1);
    out.put("shard.wall_sn_s", sharded.wall_s, 1);
    out.put("queue.peak_len", r.peak_queue_len as f64, 1);
    out.put("admission.bytes", r.admission_bytes as f64, 1);
    out.put("workload.stream_bytes", r.workload_stream_bytes as f64, 1);
    put_overhead(out, traced.wall_s, bare.wall_s, traced.run_s);
    Ok(())
}

/// Calls, p50 and p99 of each gate operation, the Join drop share and
/// the mean quoted difficulty.
fn put_gate_spans(out: &mut Outcome, spans: &[GateSpan]) -> f64 {
    for op in GateOp::TIMED {
        let ns: Vec<f64> =
            spans.iter().filter(|s| s.op == op).map(|s| (s.end_ns - s.start_ns) as f64).collect();
        let name = op.name();
        out.put(layer_name(format!("{name}.calls")), ns.len() as f64, ns.len() as u64);
        out.put(layer_name(format!("{name}.p50_ns")), quantile(&ns, 0.5), ns.len() as u64);
        out.put(layer_name(format!("{name}.p99_ns")), quantile(&ns, 0.99), ns.len() as u64);
    }
    let joins: Vec<&GateSpan> = spans.iter().filter(|s| s.op == GateOp::Join).collect();
    let dropped = joins.iter().filter(|s| s.dropped).count();
    out.put("gate.join.drop_frac", dropped as f64 / joins.len().max(1) as f64, joins.len() as u64);
    let hellos: Vec<f64> =
        spans.iter().filter(|s| s.op == GateOp::Connect).map(|s| s.difficulty as f64).collect();
    out.put(
        "gate.difficulty_mean",
        hellos.iter().sum::<f64>() / hellos.len().max(1) as f64,
        hellos.len() as u64,
    );
    spans.iter().map(|s| (s.end_ns - s.start_ns) as f64).sum::<f64>() / 1e9
}

fn put_counters(out: &mut Outcome, c: &sybil_gate::GateCounters) {
    let admitted = c.admitted.max(1) as f64;
    out.put("crypto.pow_verifications", c.pow_verifications as f64 / admitted, c.admitted);
    out.put("memhard.verifications", c.mem_verifications as f64 / admitted, c.admitted);
}

/// Encode plus decode time per frame over `frames`, repeated for at
/// least 50 ms.
fn wire_ns_per_frame(frames: &[Frame]) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut n = 0u64;
    while n == 0 || start.elapsed() < Duration::from_millis(50) {
        for frame in frames {
            let bytes = frame.encode();
            let decoded = Frame::decode(std::hint::black_box(&bytes)).expect("frames round-trip");
            std::hint::black_box(decoded);
        }
        n += frames.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

fn trace_replay(p: &Params, out: &mut Outcome) -> io::Result<()> {
    let bare = gate::replay_unit(&p.dir, p.seed, None)?;
    let probe = Arc::new(GateProbe::default());
    let traced = gate::replay_unit(&p.dir, p.seed, Some(&probe))?;
    check_replay(out, &traced, &bare, "traced and untraced");
    for u in [&bare, &traced] {
        out.attempted += u.report.hist.count();
        out.failed += u.counters.dropped + u.counters.refused_mine;
    }
    let spans = probe.spans();
    let handled_s = put_gate_spans(out, &spans);
    out.trace_rows.extend(trace::span_rows(&spans));
    put_counters(out, &traced.counters);
    out.put("wire.ns_per_frame", wire_ns_per_frame(&probe.frames()), probe.frames().len() as u64);
    out.put("client.self_s", traced.replay_s - handled_s, 1);
    out.put("client.pow_work", traced.report.client_pow_work as f64, traced.report.connections);
    out.put("client.mine_attempts", traced.report.mine_attempts as f64, traced.report.connections);
    put_overhead(out, traced.wall_s, bare.wall_s, traced.replay_s);
    Ok(())
}

fn trace_tcp(p: &Params, out: &mut Outcome) -> io::Result<()> {
    let (bare_out, bare) = measure_tcp(p)?;
    out.put("gen.lateness_p99_us", bare.lateness_p99_us(), bare.steps.len() as u64);
    out.check_failures.extend(bare_out.check_failures);
    let probe = Arc::new(GateProbe::default());
    let (traced, counters) = tcp_run(p, Some(&probe))?;
    check_tcp(out, &traced, &counters);
    out.attempted = (bare.steps.len() + traced.steps.len()) as u64;
    out.failed = bare.tally().failures() + traced.tally().failures();
    let spans = probe.spans();
    put_gate_spans(out, &spans);
    put_counters(out, &counters);
    out.put("wire.ns_per_frame", wire_ns_per_frame(&probe.frames()), probe.frames().len() as u64);
    let t = traced.tally();
    let sum = |f: fn(&gate::StepSpans) -> u64| traced.sum(f);
    out.put("client.self_s", (sum(|s| s.pow_ns) + sum(|s| s.mine_ns)) as f64 / 1e9, t.honest);
    out.put("client.pow_work", sum(|s| s.pow_work) as f64, t.honest);
    out.put("client.mine_attempts", sum(|s| s.mine_attempts) as f64, t.honest);
    let steps = traced.steps.len() as u64;
    out.put("transport.connect_us", us(sum(|s| s.connect_ns) as f64 / steps.max(1) as f64), steps);
    let handled: u64 =
        spans.iter().filter(|s| s.op != GateOp::Connect).map(|s| s.end_ns - s.start_ns).sum();
    let rtts = sum(|s| s.rtts);
    let overhead = (sum(|s| s.rtt_ns) as f64 - handled as f64) / rtts.max(1) as f64;
    out.put("transport.overhead_us", us(overhead), rtts);
    out.put("transport.conns_peak", traced.conns_peak as f64, 1);
    out.put("transport.errors", (t.errors + bare.tally().errors) as f64, 2);
    // Open loop: the run lasts as long as its schedule, so the overhead is
    // the growth of the mean step (due time to completion), and coverage
    // is the share of that step the client's spans account for.
    let mean_step = |r: &OpenLoop| r.sum(|s| s.total_ns) as f64 / r.steps.len().max(1) as f64 / 1e9;
    let covered = (sum(|s| s.late_ns)
        + sum(|s| s.connect_ns)
        + sum(|s| s.pow_ns)
        + sum(|s| s.mine_ns)
        + sum(|s| s.rtt_ns)) as f64
        / steps.max(1) as f64
        / 1e9;
    put_overhead(out, mean_step(&traced), mean_step(&bare), covered);
    out.trace_rows.extend(gate::step_rows(&traced.steps));
    out.trace_rows.extend(trace::span_rows(&spans));
    Ok(())
}
