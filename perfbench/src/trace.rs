//! The traced run's recorders and the timing forwarders that fill them.
//!
//! Every forwarder wraps one pluggable part of the program and forwards
//! *every* trait method to it — the defaulted ones too. Falling back to a
//! trait default would silently change the program under test:
//! `state_shards` picks the ledger layout, `needs_quote` decides whether
//! each adversary wakeup computes a windowed count, and `merged` picks
//! the engine's run loop. The forwarder tests pin that a wrapped run is
//! bit-identical to the bare one.
//!
//! Engine callbacks fire millions of times per run, so they are
//! aggregated per call site (count, total, a [`LatencyHist`]) instead of
//! stored. Gate requests are few enough to keep every span.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sybil_crypto::Digest;
use sybil_gate::wire::Frame;
use sybil_gate::{GateHandler, LatencyHist, Response, SharedGate};
use sybil_sim::adversary::{Adversary, AdversaryAction, DefenseView};
use sybil_sim::defense::{
    Admission, BatchAdmission, Defense, DefenseEvent, PeriodicReport, PurgeReport,
};
use sybil_sim::{Cost, Session, SessionIndex, StreamEvent, Time, WorkloadSource, WorkloadStream};

/// Nanoseconds since `start`, saturating.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An engine call site the forwarders time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// `Defense::good_join`.
    GoodJoin,
    /// `Defense::good_depart`.
    GoodDepart,
    /// `Defense::bad_join_batch`.
    BadJoinBatch,
    /// `Defense::purge`.
    Purge,
    /// `Defense::periodic_apply`.
    PeriodicApply,
    /// `Defense::quote`.
    Quote,
    /// `Adversary::act`.
    AdvAct,
    /// `Adversary::purge_retention` and `Adversary::periodic_retention`.
    AdvRetention,
    /// `WorkloadStream::next_session`.
    NextSession,
    /// `WorkloadStream::next_initial_departure`.
    NextInitial,
    /// `WorkloadStream::next_event` (the merged, sharded feed).
    NextEvent,
}

impl Site {
    /// Every site, in report order.
    pub const ALL: [Site; 11] = [
        Site::GoodJoin,
        Site::GoodDepart,
        Site::BadJoinBatch,
        Site::Purge,
        Site::PeriodicApply,
        Site::Quote,
        Site::AdvAct,
        Site::AdvRetention,
        Site::NextSession,
        Site::NextInitial,
        Site::NextEvent,
    ];

    /// The metric prefix of this site.
    pub fn name(self) -> &'static str {
        match self {
            Site::GoodJoin => "defense.good_join",
            Site::GoodDepart => "defense.good_depart",
            Site::BadJoinBatch => "defense.bad_join_batch",
            Site::Purge => "defense.purge",
            Site::PeriodicApply => "defense.periodic_apply",
            Site::Quote => "defense.quote",
            Site::AdvAct => "adversary.act",
            Site::AdvRetention => "adversary.retention",
            Site::NextSession => "workload.next_session",
            Site::NextInitial => "workload.next_initial",
            Site::NextEvent => "shard.next_event",
        }
    }
}

/// Count, total and latency histogram of one call site.
#[derive(Clone, Debug, Default)]
pub struct SiteStats {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub ns: u64,
    /// Per-call latency, nanoseconds.
    pub hist: LatencyHist,
}

/// The per-site aggregates of one simulation run, shared by the
/// forwarders wrapping its defense, adversary and workload stream.
/// Single-threaded: a simulation runs on one thread.
#[derive(Debug, Default)]
pub struct SimProbe {
    sites: RefCell<Vec<SiteStats>>,
    batch_attempts: Cell<u64>,
    batch_admitted: Cell<u64>,
    sessions_read: Cell<u64>,
    initials_read: Cell<u64>,
}

impl SimProbe {
    /// A fresh probe, shared by the forwarders of one run.
    pub fn new() -> Rc<SimProbe> {
        Rc::new(SimProbe {
            sites: RefCell::new(vec![SiteStats::default(); Site::ALL.len()]),
            ..SimProbe::default()
        })
    }

    fn time<T>(&self, site: Site, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = ns_since(start);
        let mut sites = self.sites.borrow_mut();
        let s = &mut sites[site as usize];
        s.calls += 1;
        s.ns += ns;
        s.hist.record(ns);
        out
    }

    /// The aggregates recorded so far.
    pub fn snapshot(&self) -> SimTrace {
        SimTrace {
            sites: self.sites.borrow().clone(),
            batch_attempts: self.batch_attempts.get(),
            batch_admitted: self.batch_admitted.get(),
            sessions_read: self.sessions_read.get(),
            initials_read: self.initials_read.get(),
        }
    }
}

/// A [`SimProbe`]'s aggregates as plain data, mergeable across runs.
#[derive(Clone, Debug, Default)]
pub struct SimTrace {
    /// Per-site stats, indexed by [`Site`].
    pub sites: Vec<SiteStats>,
    /// Sybil join attempts the defense processed in batches.
    pub batch_attempts: u64,
    /// Sybil joins those batches admitted.
    pub batch_admitted: u64,
    /// Session records the workload stream yielded.
    pub sessions_read: u64,
    /// Initial-departure records the workload stream yielded.
    pub initials_read: u64,
}

impl SimTrace {
    /// Stats of one site.
    pub fn site(&self, site: Site) -> &SiteStats {
        &self.sites[site as usize]
    }

    /// Nanoseconds inside every wrapped callback.
    pub fn callback_ns(&self) -> u64 {
        self.sites.iter().map(|s| s.ns).sum()
    }

    /// Adds `other`'s counts and totals (histograms stay per run).
    pub fn absorb(&mut self, other: &SimTrace) {
        if self.sites.is_empty() {
            self.sites = vec![SiteStats::default(); Site::ALL.len()];
        }
        for (a, b) in self.sites.iter_mut().zip(&other.sites) {
            a.calls += b.calls;
            a.ns += b.ns;
        }
        self.batch_attempts += other.batch_attempts;
        self.batch_admitted += other.batch_admitted;
        self.sessions_read += other.sessions_read;
        self.initials_read += other.initials_read;
    }
}

/// TSV rows of `t`'s call sites, labelled with the run they belong to:
/// `site  run  name  calls  total_ns  p50_ns  p99_ns  max_ns`.
pub fn site_rows(run: &str, t: &SimTrace) -> Vec<String> {
    Site::ALL
        .iter()
        .zip(&t.sites)
        .filter(|(_, s)| s.calls > 0)
        .map(|(site, s)| {
            let (h, name) = (&s.hist, site.name());
            let (p50, p99) = (h.percentile(0.5), h.percentile(0.99));
            format!("site\t{run}\t{name}\t{}\t{}\t{p50}\t{p99}\t{}", s.calls, s.ns, h.max())
        })
        .collect()
}

/// Times a [`Defense`]'s admission, purge, periodic and quote calls.
pub struct TimedDefense<D> {
    inner: D,
    probe: Rc<SimProbe>,
}

impl<D> TimedDefense<D> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: D, probe: Rc<SimProbe>) -> Self {
        TimedDefense { inner, probe }
    }
}

impl<D: Defense> Defense for TimedDefense<D> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn init(&mut self, now: Time, n_good: u64, n_bad: u64) -> Cost {
        self.inner.init(now, n_good, n_bad)
    }
    fn quote(&self, now: Time) -> Cost {
        self.probe.time(Site::Quote, || self.inner.quote(now))
    }
    fn good_join(&mut self, now: Time) -> Admission {
        self.probe.time(Site::GoodJoin, || self.inner.good_join(now))
    }
    fn good_depart(&mut self, now: Time, joined_at: Time) {
        self.probe.time(Site::GoodDepart, || self.inner.good_depart(now, joined_at))
    }
    fn bad_join_batch(&mut self, now: Time, budget: Cost, max_attempts: u64) -> BatchAdmission {
        let batch = self
            .probe
            .time(Site::BadJoinBatch, || self.inner.bad_join_batch(now, budget, max_attempts));
        let p = &self.probe;
        p.batch_attempts.set(p.batch_attempts.get() + batch.attempts);
        p.batch_admitted.set(p.batch_admitted.get() + batch.admitted);
        batch
    }
    fn bad_depart(&mut self, now: Time, n: u64) -> u64 {
        self.inner.bad_depart(now, n)
    }
    fn purge_due(&self, now: Time) -> bool {
        self.inner.purge_due(now)
    }
    fn purge(&mut self, now: Time, retain_bad: u64) -> PurgeReport {
        self.probe.time(Site::Purge, || self.inner.purge(now, retain_bad))
    }
    fn next_periodic(&self) -> Option<Time> {
        self.inner.next_periodic()
    }
    fn periodic_cost_per_member(&self, now: Time) -> Cost {
        self.inner.periodic_cost_per_member(now)
    }
    fn periodic_apply(&mut self, now: Time, bad_retained: u64) -> PeriodicReport {
        self.probe.time(Site::PeriodicApply, || self.inner.periodic_apply(now, bad_retained))
    }
    fn n_members(&self) -> u64 {
        self.inner.n_members()
    }
    fn n_bad(&self) -> u64 {
        self.inner.n_bad()
    }
    fn n_good(&self) -> u64 {
        self.inner.n_good()
    }
    fn drain_events_into(&mut self, out: &mut Vec<DefenseEvent>) {
        self.inner.drain_events_into(out)
    }
    fn drain_events(&mut self) -> Vec<DefenseEvent> {
        self.inner.drain_events()
    }
}

/// Times an [`Adversary`]'s turns and retention decisions.
pub struct TimedAdversary<A> {
    inner: A,
    probe: Rc<SimProbe>,
}

impl<A> TimedAdversary<A> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: A, probe: Rc<SimProbe>) -> Self {
        TimedAdversary { inner, probe }
    }
}

impl<A: Adversary> Adversary for TimedAdversary<A> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.inner.next_wakeup(now)
    }
    fn needs_quote(&self) -> bool {
        self.inner.needs_quote()
    }
    fn act(&mut self, view: &DefenseView, budget: Cost) -> AdversaryAction {
        self.probe.time(Site::AdvAct, || self.inner.act(view, budget))
    }
    fn purge_retention(&mut self, view: &DefenseView, cap: u64, budget: Cost) -> u64 {
        self.probe.time(Site::AdvRetention, || self.inner.purge_retention(view, cap, budget))
    }
    fn periodic_retention(&mut self, view: &DefenseView, cost_per_id: Cost, budget: Cost) -> u64 {
        self.probe
            .time(Site::AdvRetention, || self.inner.periodic_retention(view, cost_per_id, budget))
    }
}

/// A [`WorkloadSource`] whose stream times every record it yields.
pub struct TimedSource<W> {
    inner: W,
    probe: Rc<SimProbe>,
}

impl<W> TimedSource<W> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: W, probe: Rc<SimProbe>) -> Self {
        TimedSource { inner, probe }
    }
}

impl<W: WorkloadSource> WorkloadSource for TimedSource<W> {
    type Stream = TimedStream<W::Stream>;

    fn initial_size(&self) -> u64 {
        self.inner.initial_size()
    }
    fn session_count(&self) -> u64 {
        self.inner.session_count()
    }
    fn into_stream(self, horizon: Time) -> Self::Stream {
        TimedStream { inner: self.inner.into_stream(horizon), probe: self.probe }
    }
    fn state_shards(&self) -> usize {
        self.inner.state_shards()
    }
    fn preallocate_admission(&self) -> bool {
        self.inner.preallocate_admission()
    }
}

/// The stream half of [`TimedSource`].
pub struct TimedStream<S> {
    inner: S,
    probe: Rc<SimProbe>,
}

impl<S: WorkloadStream> WorkloadStream for TimedStream<S> {
    fn seq_floor(&self) -> u64 {
        self.inner.seq_floor()
    }
    fn next_session(&mut self) -> Option<(SessionIndex, Session, u64)> {
        let next = self.probe.time(Site::NextSession, || self.inner.next_session());
        if next.is_some() {
            self.probe.sessions_read.set(self.probe.sessions_read.get() + 1);
        }
        next
    }
    fn next_initial_departure(&mut self) -> Option<(Time, u64)> {
        let next = self.probe.time(Site::NextInitial, || self.inner.next_initial_departure());
        if next.is_some() {
            self.probe.initials_read.set(self.probe.initials_read.get() + 1);
        }
        next
    }
    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }
    fn merged(&self) -> bool {
        self.inner.merged()
    }
    fn next_event(&mut self) -> Option<(Time, u64, StreamEvent)> {
        self.probe.time(Site::NextEvent, || self.inner.next_event())
    }
}

/// The gate request a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateOp {
    /// `connect`: connection setup and the Hello quote.
    Connect,
    /// A `Join` frame: the PoW check and the provisional grant.
    Join,
    /// A `MineSubmit` frame: the memory-hard check.
    MineSubmit,
    /// A `Depart` frame.
    Depart,
    /// Any other inbound frame (a protocol violation).
    Other,
}

impl GateOp {
    /// Every operation with a per-layer metric, in report order.
    pub const TIMED: [GateOp; 4] =
        [GateOp::Connect, GateOp::Join, GateOp::MineSubmit, GateOp::Depart];

    /// The metric prefix of this operation.
    pub fn name(self) -> &'static str {
        match self {
            GateOp::Connect => "gate.connect",
            GateOp::Join => "gate.join",
            GateOp::MineSubmit => "gate.mine_submit",
            GateOp::Depart => "gate.depart",
            GateOp::Other => "gate.other",
        }
    }

    fn of(frame: &Frame) -> GateOp {
        match frame {
            Frame::Join { .. } => GateOp::Join,
            Frame::MineSubmit { .. } => GateOp::MineSubmit,
            Frame::Depart { .. } => GateOp::Depart,
            _ => GateOp::Other,
        }
    }
}

/// One gate request as the service saw it. A session's Join and
/// MineSubmit travel on one connection, so `conn` is the session id.
#[derive(Clone, Copy, Debug)]
pub struct GateSpan {
    /// Connection (session) id.
    pub conn: u64,
    /// What was handled.
    pub op: GateOp,
    /// Start, nanoseconds since the probe was created.
    pub start_ns: u64,
    /// End, nanoseconds since the probe was created.
    pub end_ns: u64,
    /// True when the service dropped the connection instead of replying.
    pub dropped: bool,
    /// The Hello quote, for `Connect` spans.
    pub difficulty: u64,
}

/// Every span and frame one traced gate run handled. Shared by the
/// server threads of the TCP transport, hence the lock.
#[derive(Debug)]
pub struct GateProbe {
    epoch: Instant,
    spans: Mutex<Vec<GateSpan>>,
    frames: Mutex<Vec<Frame>>,
}

impl Default for GateProbe {
    fn default() -> Self {
        GateProbe { epoch: Instant::now(), spans: Mutex::default(), frames: Mutex::default() }
    }
}

impl GateProbe {
    fn record(&self, span: GateSpan, frames: &[Frame]) {
        self.spans.lock().expect("span log poisoned").push(span);
        self.frames.lock().expect("frame log poisoned").extend_from_slice(frames);
    }

    fn connect(&self, f: impl FnOnce() -> (u64, Frame)) -> (u64, Frame) {
        let start = ns_since(self.epoch);
        let (conn, hello) = f();
        let end = ns_since(self.epoch);
        let difficulty = match hello {
            Frame::Hello { difficulty, .. } => difficulty,
            _ => 0,
        };
        let span = GateSpan {
            conn,
            op: GateOp::Connect,
            start_ns: start,
            end_ns: end,
            dropped: false,
            difficulty,
        };
        self.record(span, &[hello]);
        (conn, hello)
    }

    fn handle(&self, conn: u64, frame: &Frame, f: impl FnOnce() -> Response) -> Response {
        let start = ns_since(self.epoch);
        let response = f();
        let end = ns_since(self.epoch);
        let (dropped, reply) = match response {
            Response::Drop => (true, None),
            Response::Reply(reply) => (false, Some(reply)),
        };
        let span = GateSpan {
            conn,
            op: GateOp::of(frame),
            start_ns: start,
            end_ns: end,
            dropped,
            difficulty: 0,
        };
        match reply {
            Some(reply) => self.record(span, &[*frame, reply]),
            None => self.record(span, &[*frame]),
        }
        response
    }

    /// The spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<GateSpan> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Every frame that crossed the service boundary, both directions.
    pub fn frames(&self) -> Vec<Frame> {
        self.frames.lock().expect("frame log poisoned").clone()
    }
}

/// TSV rows of gate spans:
/// `span  conn  op  start_ns  end_ns  dropped  difficulty`.
pub fn span_rows(spans: &[GateSpan]) -> Vec<String> {
    spans
        .iter()
        .map(|s| {
            let op = s.op.name();
            format!(
                "span\t{}\t{op}\t{}\t{}\t{}\t{}",
                s.conn, s.start_ns, s.end_ns, s.dropped, s.difficulty
            )
        })
        .collect()
}

/// Times a [`GateHandler`] (the loopback and replay path).
pub struct TimedGate<G> {
    inner: G,
    probe: Arc<GateProbe>,
}

impl<G> TimedGate<G> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: G, probe: Arc<GateProbe>) -> Self {
        TimedGate { inner, probe }
    }

    /// The wrapped service.
    pub fn into_inner(self) -> G {
        self.inner
    }
}

impl<G: GateHandler> GateHandler for TimedGate<G> {
    fn connect(&mut self, now: Time) -> (u64, Frame) {
        let inner = &mut self.inner;
        self.probe.connect(|| inner.connect(now))
    }
    fn handle(&mut self, conn: u64, frame: &Frame, now: Time) -> Response {
        let inner = &mut self.inner;
        self.probe.handle(conn, frame, || inner.handle(conn, frame, now))
    }
    fn bootstrap_token(&self, identity: u64) -> Option<Digest> {
        self.inner.bootstrap_token(identity)
    }
}

/// Times a [`SharedGate`] (the TCP path).
pub struct TimedShared<G> {
    inner: G,
    probe: Arc<GateProbe>,
}

impl<G> TimedShared<G> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: G, probe: Arc<GateProbe>) -> Self {
        TimedShared { inner, probe }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &G {
        &self.inner
    }
}

impl<G: SharedGate> SharedGate for TimedShared<G> {
    fn connect(&self, now: Time) -> (u64, Frame) {
        self.probe.connect(|| self.inner.connect(now))
    }
    fn handle(&self, conn: u64, frame: &Frame, now: Time) -> Response {
        self.probe.handle(conn, frame, || self.inner.handle(conn, frame, now))
    }
}
