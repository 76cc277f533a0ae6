//! The two admission-gate workloads.
//!
//! * `gate_replay` — the `gate_bench` churn model replayed by
//!   [`sybil_gate::replay`] over the in-process loopback against the
//!   default [`GateService`]: the decision path with no socket, closed
//!   loop, one thread per replay, deterministic (its decision-log
//!   fingerprint is an output check).
//! * `gate_tcp` — [`transport::serve`] on 127.0.0.1 with the
//!   `sybil-gate` binary's default service, driven by an open-loop
//!   generator: sessions fall due on a fixed-rate schedule and are timed
//!   from that due time, so a stall shows in every session queued behind
//!   it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sybil_churn::{ArrivalProcess, ChurnModel, SessionModel};
use sybil_crypto::{Challenge, Solution, Solver};
use sybil_gate::memhard::{mine, MemHardParams};
use sybil_gate::wire::{read_frame, Frame};
use sybil_gate::{
    replay, transport, GateConfig, GateCounters, GateService, ReplayConfig, ReplayReport,
    ShardedGate, SharedGate,
};
use sybil_sim::{write_workload_file, DiskWorkload, Time, WorkloadSource};

use crate::trace::{ns_since, GateProbe, TimedGate};
use crate::SetupTimes;

/// Share of sessions that attack with garbage or replayed PoW.
pub const ATTACK_FRACTION: f64 = 0.3;
/// `gate_replay` horizon: about 3000 sessions, one second a replay here.
pub const REPLAY_HORIZON: f64 = 30.0;
/// `gate_tcp` offered load, sessions per second: a fifth of the service's
/// capacity on a 2-vCPU VM with two clients. Of the rates tried there
/// (100, 400, 1000, 2000 and 3000 per second), 2000 was the highest at
/// which the generator stayed within about 10 ms of its schedule on a
/// quiet host, and at 3000 the backlog grew. Under contention from other
/// tenants the capacity fell below 1000 (the generator ran up to 1 s
/// late), while 400 stayed unsaturated.
pub const TCP_RATE: f64 = 400.0;
/// Mean session length of the `gate_bench` churn model, seconds.
pub const SESSION_MEAN: f64 = 600.0;
/// Connection threads of the `sybil-gate` binary's default service.
pub const TCP_WORKERS: usize = 8;
/// Per-socket read timeout: a reply slower than this is a failure.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The `gate_bench` churn model: 2000 bootstrap members, Poisson
/// arrivals at 100/s, exponential sessions with a 10-minute mean.
pub fn gate_model() -> ChurnModel {
    ChurnModel {
        name: "gate",
        initial_size: 2000,
        arrival: ArrivalProcess::Poisson { rate: 100.0 },
        session: SessionModel::Exponential { mean: SESSION_MEAN },
    }
}

fn replay_path(dir: &Path) -> PathBuf {
    dir.join("gate.wkld")
}

fn replay_config(seed: u64) -> ReplayConfig {
    ReplayConfig {
        horizon: Time(REPLAY_HORIZON),
        adversarial_fraction: ATTACK_FRACTION,
        seed: sybil_exp::trial_seed(seed, 1),
    }
}

/// The default service with the workload's bootstrap members.
fn replay_service(initial_size: u64) -> GateService {
    GateService::new(GateConfig { initial_size, ..GateConfig::default() })
}

/// `gate_replay` set-up: generates and writes the churn workload, then
/// builds the service.
pub fn replay_setup(dir: &Path, seed: u64) -> std::io::Result<SetupTimes> {
    let start = Instant::now();
    let workload = gate_model().generate(Time(REPLAY_HORIZON), seed);
    let generate_s = start.elapsed().as_secs_f64();
    let write_start = Instant::now();
    write_workload_file(replay_path(dir), &workload)?;
    let write_s = write_start.elapsed().as_secs_f64();
    drop(replay_service(workload.initial_size()));
    Ok(SetupTimes { total_s: start.elapsed().as_secs_f64(), generate_s, write_s, warm_s: 0.0 })
}

/// One replay.
pub struct ReplayUnit {
    /// Wall seconds, workload open through the returned service.
    pub wall_s: f64,
    /// Seconds inside the `replay` call.
    pub replay_s: f64,
    /// The client-side report (decision latencies, client work).
    pub report: ReplayReport,
    /// The service's counters.
    pub counters: GateCounters,
    /// SHA-256 of the decision log.
    pub fingerprint: String,
}

/// Replays the workload once, through a [`TimedGate`] when `probe` is set.
pub fn replay_unit(
    dir: &Path,
    seed: u64,
    probe: Option<&Arc<GateProbe>>,
) -> std::io::Result<ReplayUnit> {
    let start = Instant::now();
    let disk = DiskWorkload::open(replay_path(dir))?;
    let service = replay_service(disk.initial_size());
    let cfg = replay_config(seed);
    let replay_start = Instant::now();
    let (service, report) = match probe {
        None => replay(disk, service, &cfg),
        Some(probe) => {
            let (gate, report) = replay(disk, TimedGate::new(service, Arc::clone(probe)), &cfg);
            (gate.into_inner(), report)
        }
    };
    let replay_s = replay_start.elapsed().as_secs_f64();
    Ok(ReplayUnit {
        wall_s: start.elapsed().as_secs_f64(),
        replay_s,
        counters: service.counters(),
        fingerprint: sybil_crypto::hex::encode(service.fingerprint().as_bytes()),
        report,
    })
}

/// How a session behaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Solves the PoW, mines, and later departs.
    Honest,
    /// Sends a PoW solution that does not verify.
    Garbage,
    /// Resends the last honest session's `(tag, solution)` on a fresh
    /// connection, which the per-connection nonce defeats.
    Replayed,
}

/// What a scheduled step does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The session connects and joins.
    Join(Role),
    /// The (honest, admitted) session departs on a new connection.
    Depart,
}

/// One step of the open-loop schedule.
#[derive(Clone, Copy, Debug)]
pub struct Due {
    /// When the step is due, from the start of the run.
    pub at: Duration,
    /// The session it belongs to.
    pub session: usize,
    /// What it does.
    pub step: Step,
}

/// The open-loop schedule: steps in due order.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Steps sorted by due time.
    pub steps: Vec<Due>,
    /// Sessions in the schedule.
    pub sessions: usize,
}

/// splitmix64's finalizer: the generator's only randomness.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit_interval(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Sessions due every `1/rate` seconds for `seconds`. A share
/// [`ATTACK_FRACTION`] attack (garbage and replayed PoW alike). The rest
/// hold for an exponential time of mean `hold_mean` seconds, as the
/// churn model's sessions do, and depart if that falls within the run.
pub fn schedule(seed: u64, rate: f64, seconds: f64, hold_mean: f64) -> Schedule {
    let sessions = (rate * seconds).ceil().max(1.0) as usize;
    let mut steps = Vec::with_capacity(2 * sessions);
    for session in 0..sessions {
        let at = session as f64 / rate;
        let r = mix(seed ^ mix(session as u64));
        let role = if unit_interval(r) < ATTACK_FRACTION {
            if r & 1 == 0 {
                Role::Garbage
            } else {
                Role::Replayed
            }
        } else {
            Role::Honest
        };
        steps.push(Due { at: Duration::from_secs_f64(at), session, step: Step::Join(role) });
        let hold = -hold_mean * (1.0 - unit_interval(mix(r))).ln();
        if role == Role::Honest && at + hold < seconds {
            steps.push(Due { at: Duration::from_secs_f64(at + hold), session, step: Step::Depart });
        }
    }
    steps.sort_by_key(|d| d.at);
    Schedule { steps, sessions }
}

/// One scheduled step as the client saw it, nanoseconds. Its children —
/// the wait for a free client, connect, PoW, mining and the request round
/// trips — cover its due-to-done span up to untimed glue.
#[derive(Clone, Copy, Debug)]
pub struct StepSpans {
    /// The session the step belongs to.
    pub session: usize,
    /// What the step did.
    pub step: Step,
    /// When it was due, from the start of the run.
    pub due: Duration,
    /// Due time until a client started it.
    pub late_ns: u64,
    /// TCP connect until the Hello was read.
    pub connect_ns: u64,
    /// Solving the Hello PoW.
    pub pow_ns: u64,
    /// Mining the memory-hard salt.
    pub mine_ns: u64,
    /// Request round trips (Join, MineSubmit, Depart), summed.
    pub rtt_ns: u64,
    /// Round trips made.
    pub rtts: u64,
    /// Due time until the step finished.
    pub total_ns: u64,
    /// PoW hashes computed.
    pub pow_work: u64,
    /// Memory-hard salts tried.
    pub mine_attempts: u64,
    /// True when the step ended as the protocol says it must: honest
    /// sessions admitted, attacks closed without a reply byte, departures
    /// acknowledged.
    pub ok: bool,
    /// True when an I/O error or timeout ended the step.
    pub error: bool,
}

impl StepSpans {
    fn new(due: &Due) -> StepSpans {
        StepSpans {
            session: due.session,
            step: due.step,
            due: due.at,
            late_ns: 0,
            connect_ns: 0,
            pow_ns: 0,
            mine_ns: 0,
            rtt_ns: 0,
            rtts: 0,
            total_ns: 0,
            pow_work: 0,
            mine_attempts: 0,
            ok: false,
            error: false,
        }
    }
}

/// TSV rows of client steps: `step  session  kind  due_ns  late_ns
/// connect_ns  pow_ns  mine_ns  rtt_ns  total_ns  ok`.
pub fn step_rows(steps: &[StepSpans]) -> Vec<String> {
    steps
        .iter()
        .map(|s| {
            let kind = match s.step {
                Step::Join(Role::Honest) => "join",
                Step::Join(Role::Garbage) => "garbage",
                Step::Join(Role::Replayed) => "replayed",
                Step::Depart => "depart",
            };
            format!(
                "step\t{}\t{kind}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.session,
                s.due.as_nanos(),
                s.late_ns,
                s.connect_ns,
                s.pow_ns,
                s.mine_ns,
                s.rtt_ns,
                s.total_ns,
                s.ok
            )
        })
        .collect()
}

/// The client's outcome counts of one open-loop run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Honest sessions started.
    pub honest: u64,
    /// Honest sessions admitted.
    pub admitted: u64,
    /// Attacking sessions started.
    pub attacks: u64,
    /// Attacking Joins the gate closed without a reply byte.
    pub attacks_closed: u64,
    /// Departures started.
    pub departs: u64,
    /// Departures acknowledged.
    pub departs_acked: u64,
    /// I/O errors and timeouts.
    pub errors: u64,
}

impl Tally {
    /// Steps that did not end as the protocol says they must.
    pub fn failures(&self) -> u64 {
        (self.honest - self.admitted)
            + (self.attacks - self.attacks_closed)
            + (self.departs - self.departs_acked)
    }
}

/// What one open-loop run observed.
#[derive(Clone, Debug, Default)]
pub struct OpenLoop {
    /// Every step started, in completion order per client.
    pub steps: Vec<StepSpans>,
    /// First due time to last completion, seconds.
    pub wall_s: f64,
    /// Most client connections open at once.
    pub conns_peak: usize,
}

impl OpenLoop {
    /// Outcome counts over all steps.
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for s in &self.steps {
            let (started, done) = match s.step {
                Step::Join(Role::Honest) => (&mut t.honest, &mut t.admitted),
                Step::Join(_) => (&mut t.attacks, &mut t.attacks_closed),
                Step::Depart => (&mut t.departs, &mut t.departs_acked),
            };
            *started += 1;
            *done += u64::from(s.ok);
            t.errors += u64::from(s.error);
        }
        t
    }

    /// Per admitted honest session: when it was due and the nanoseconds
    /// from then until `Admitted` arrived.
    pub fn admits(&self) -> Vec<(Duration, u64)> {
        self.steps
            .iter()
            .filter(|s| s.ok && s.step == Step::Join(Role::Honest))
            .map(|s| (s.due, s.total_ns))
            .collect()
    }

    /// How late the generator ran: the p99 of the steps' start past their
    /// due time, microseconds (the `gen.lateness_p99_us` metric).
    pub fn lateness_p99_us(&self) -> f64 {
        let late: Vec<f64> = self.steps.iter().map(|s| s.late_ns as f64 / 1e3).collect();
        crate::report::quantile(&late, 0.99)
    }

    /// `f` summed over every step.
    pub fn sum(&self, f: impl Fn(&StepSpans) -> u64) -> u64 {
        self.steps.iter().map(f).sum()
    }
}

/// A gate served over TCP on an ephemeral localhost port.
pub struct Server {
    addr: SocketAddr,
    control: TcpListener,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Binds 127.0.0.1:0 and serves `gate` with `workers` connection
    /// threads on a background thread.
    pub fn start<G: SharedGate + 'static>(gate: Arc<G>, workers: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let control = listener.try_clone()?;
        let thread = std::thread::spawn(move || transport::serve(listener, gate, workers));
        Ok(Server { addr, control, thread })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the acceptor and joins its thread. `serve` returns when an
    /// accept fails: the listener is made non-blocking and one connection
    /// wakes the blocked accept, so the next accept fails with
    /// `WouldBlock`.
    pub fn stop(self) -> std::io::Result<()> {
        self.control.set_nonblocking(true)?;
        drop(TcpStream::connect(self.addr)?);
        match self.thread.join() {
            Ok(Err(e)) if e.kind() != std::io::ErrorKind::WouldBlock => Err(e),
            Ok(_) => Ok(()),
            Err(_) => Err(std::io::Error::other("the acceptor thread panicked")),
        }
    }
}

/// Waits until every connection handler `serve` spawned has dropped its
/// reference to `gate` (handlers are detached threads), up to `limit`.
pub fn await_handlers<G>(gate: &Arc<G>, limit: Duration) -> bool {
    let start = Instant::now();
    while Arc::strong_count(gate) > 1 {
        if start.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// One connection of the client, counted while open.
struct Conn<'a> {
    stream: TcpStream,
    open: &'a AtomicUsize,
}

impl Drop for Conn<'_> {
    fn drop(&mut self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// An admitted session's identity and token; `None` if it was not admitted.
type Credential = Option<(u64, [u8; 32])>;

/// State the client threads share.
struct Shared<'a> {
    addr: SocketAddr,
    schedule: &'a Schedule,
    epoch: Instant,
    seed: u64,
    cursor: AtomicUsize,
    credentials: Vec<OnceLock<Credential>>,
    last_honest: Mutex<Option<(u64, u64)>>,
    open: AtomicUsize,
    peak: AtomicUsize,
}

/// Drives `schedule` against the gate at `addr` with `clients` client
/// threads, so at most `clients` steps are in flight. Every step is timed
/// from its due time.
pub fn run_open_loop(addr: SocketAddr, schedule: &Schedule, clients: usize, seed: u64) -> OpenLoop {
    let shared = Shared {
        addr,
        schedule,
        epoch: Instant::now() + Duration::from_millis(20),
        seed,
        cursor: AtomicUsize::new(0),
        credentials: (0..schedule.sessions).map(|_| OnceLock::new()).collect(),
        last_honest: Mutex::new(None),
        open: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
    };
    let per_client: Vec<(Vec<StepSpans>, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..clients.max(1)).map(|_| scope.spawn(|| client_thread(&shared))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut out =
        OpenLoop { conns_peak: shared.peak.load(Ordering::Relaxed), ..OpenLoop::default() };
    let mut last_done = shared.epoch;
    for (steps, done) in per_client {
        out.steps.extend(steps);
        last_done = last_done.max(done);
    }
    out.wall_s = last_done.duration_since(shared.epoch).as_secs_f64();
    out
}

/// One client: takes the next due step, waits for its due time, runs it.
/// Returns its steps and when it finished the last one.
fn client_thread(shared: &Shared<'_>) -> (Vec<StepSpans>, Instant) {
    let mut steps = Vec::new();
    let mut last_done = shared.epoch;
    loop {
        let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
        let Some(due) = shared.schedule.steps.get(i) else { break };
        let due_at = shared.epoch + due.at;
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
        }
        let mut spans = StepSpans::new(due);
        spans.late_ns = ns_since(due_at);
        let outcome = match due.step {
            Step::Join(Role::Honest) => {
                let admitted = honest_session(shared, &mut spans, due.session);
                let credential = admitted.as_ref().ok().copied();
                let _ = shared.credentials[due.session].set(credential);
                admitted.map(|_| true)
            }
            Step::Join(role) => attack_session(shared, &mut spans, due.session, role),
            Step::Depart => match await_credential(shared, due.session) {
                // The session was never admitted: nothing to depart.
                None => continue,
                Some((identity, token)) => depart(shared, &mut spans, identity, token),
            },
        };
        spans.ok = matches!(outcome, Ok(true));
        spans.error = outcome.is_err();
        spans.total_ns = ns_since(due_at);
        last_done = Instant::now();
        steps.push(spans);
    }
    (steps, last_done)
}

/// The credential of an admitted session, waiting for its join to finish
/// (a departure can fall due while another client still admits it).
fn await_credential(shared: &Shared<'_>, session: usize) -> Credential {
    let start = Instant::now();
    loop {
        if let Some(credential) = shared.credentials[session].get() {
            return *credential;
        }
        if start.elapsed() > 2 * IO_TIMEOUT {
            return None;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn invalid_data(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

/// Connects and reads the Hello.
fn connect<'a>(
    shared: &'a Shared<'_>,
    spans: &mut StepSpans,
) -> std::io::Result<(Conn<'a>, Frame)> {
    let start = Instant::now();
    let stream = TcpStream::connect(shared.addr)?;
    let open = shared.open.fetch_add(1, Ordering::Relaxed) + 1;
    shared.peak.fetch_max(open, Ordering::Relaxed);
    let mut conn = Conn { stream, open: &shared.open };
    conn.stream.set_read_timeout(Some(IO_TIMEOUT))?;
    conn.stream.set_nodelay(true)?;
    let hello = read_frame(&mut conn.stream)?.ok_or_else(|| invalid_data("no hello"))?;
    spans.connect_ns += ns_since(start);
    Ok((conn, hello))
}

/// Sends `frame` and reads the reply (`None`: closed without a byte).
fn request(
    conn: &mut Conn<'_>,
    spans: &mut StepSpans,
    frame: &Frame,
) -> std::io::Result<Option<Frame>> {
    let start = Instant::now();
    conn.stream.write_all(&frame.encode())?;
    let reply = read_frame(&mut conn.stream)?;
    spans.rtt_ns += ns_since(start);
    spans.rtts += 1;
    Ok(reply)
}

/// One honest admission; returns the identity and its credential.
fn honest_session(
    shared: &Shared<'_>,
    spans: &mut StepSpans,
    session: usize,
) -> std::io::Result<(u64, [u8; 32])> {
    let (mut conn, hello) = connect(shared, spans)?;
    let Frame::Hello { difficulty, nonce, mine_bits, mem_blocks, mem_passes, .. } = hello else {
        return Err(invalid_data("expected a hello"));
    };
    let tag = mix(shared.seed.wrapping_add(1) ^ session as u64);
    let start = Instant::now();
    let mut solver = Solver::new();
    let solution = solver.solve(&Challenge::new(&nonce, &tag.to_be_bytes(), difficulty)).nonce;
    spans.pow_ns = ns_since(start);
    spans.pow_work = solver.work();
    let Some(Frame::Granted { identity, token }) =
        request(&mut conn, spans, &Frame::Join { client_tag: tag, solution })?
    else {
        return Err(invalid_data("honest join not granted"));
    };
    *shared.last_honest.lock().expect("last honest poisoned") = Some((tag, solution));
    let start = Instant::now();
    let mined = mine(&token, mine_bits, &MemHardParams { blocks: mem_blocks, passes: mem_passes });
    spans.mine_ns = ns_since(start);
    spans.mine_attempts = mined.attempts;
    match request(&mut conn, spans, &Frame::MineSubmit { identity, token, salt: mined.salt })? {
        Some(Frame::Admitted { identity: i }) if i == identity => Ok((identity, token)),
        _ => Err(invalid_data("honest mining not admitted")),
    }
}

/// One attacking Join. Returns whether the gate closed the connection
/// without sending a byte. The client checks its solution against the
/// Hello first and never sends one that verifies, so every attack must
/// be dropped.
fn attack_session(
    shared: &Shared<'_>,
    spans: &mut StepSpans,
    session: usize,
    role: Role,
) -> std::io::Result<bool> {
    let (mut conn, hello) = connect(shared, spans)?;
    let Frame::Hello { difficulty, nonce, .. } = hello else {
        return Err(invalid_data("expected a hello"));
    };
    let replayed = *shared.last_honest.lock().expect("last honest poisoned");
    let (tag, mut solution) = match (role, replayed) {
        (Role::Replayed, Some(pair)) => pair,
        _ => (
            mix(shared.seed.wrapping_add(2) ^ session as u64),
            mix(shared.seed.wrapping_add(3) ^ session as u64),
        ),
    };
    let challenge = Challenge::new(&nonce, &tag.to_be_bytes(), difficulty);
    while challenge.verify(&Solution { nonce: solution }) {
        solution = solution.wrapping_add(1);
    }
    let start = Instant::now();
    conn.stream.write_all(&Frame::Join { client_tag: tag, solution }.encode())?;
    let mut byte = [0u8; 1];
    let n = conn.stream.read(&mut byte)?;
    spans.rtt_ns += ns_since(start);
    spans.rtts += 1;
    Ok(n == 0)
}

/// One departure on a fresh connection; returns whether it was acked.
fn depart(
    shared: &Shared<'_>,
    spans: &mut StepSpans,
    identity: u64,
    token: [u8; 32],
) -> std::io::Result<bool> {
    let (mut conn, _hello) = connect(shared, spans)?;
    let reply = request(&mut conn, spans, &Frame::Depart { identity, token })?;
    Ok(matches!(reply, Some(Frame::DepartAck { identity: i }) if i == identity))
}

/// The `sybil-gate` binary's default service: one shard, default config.
pub fn tcp_service() -> ShardedGate {
    ShardedGate::new(GateConfig::default(), 1)
}

/// `gate_tcp` set-up: builds the schedule and the service, binds the
/// socket and starts the acceptor (then stops it again).
pub fn tcp_setup(seed: u64, seconds: f64) -> std::io::Result<SetupTimes> {
    let start = Instant::now();
    let schedule = schedule(seed, TCP_RATE, seconds, SESSION_MEAN);
    let gate = Arc::new(tcp_service());
    let server = Server::start(Arc::clone(&gate), TCP_WORKERS)?;
    let total_s = start.elapsed().as_secs_f64();
    drop(schedule);
    server.stop()?;
    await_handlers(&gate, IO_TIMEOUT);
    Ok(SetupTimes { total_s, ..SetupTimes::default() })
}
