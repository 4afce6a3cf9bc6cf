//! The three benchmark workloads and the driver that runs one world of
//! each, timing set-up, simulation and checking, and summarising the run
//! into wall-clock-free counts and a digest.

use dynareg_churn::{ChurnDriver, ChurnModel, ConstantRate, LeaveSelector};
use dynareg_core::es::EsConfig;
use dynareg_core::space::{RegisterSpaceProcess, RetransmitConfig};
use dynareg_core::sync::SyncConfig;
use dynareg_net::delay::{EventuallySynchronous, Synchronous};
use dynareg_net::{DelayModel, DropRule, FaultPlan};
use dynareg_sim::{DetRng, IdSource, NodeId, Span, Time};
use dynareg_testkit::{
    EsFactory, RateWorkload, SpaceFactory, SpaceOf, SyncFactory, Workload, World, WorldConfig,
    WriterPolicy, ZipfKeys, ZipfWorkload,
};
use dynareg_verify::{AtomicityChecker, LivenessChecker, OpKind, SpaceHistory};

use crate::probe::{
    self, since_ns, stamp, ChurnClock, Payload, Recorded, TimedDelay, TimedFactory,
};
use crate::rusage;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["solo_sync_soak", "keyed_zipf_space", "es_lossy_quorum"];

/// Message labels reported one by one (`net.sent.<LABEL>`); any other
/// label is summed under `net.sent.other`.
pub const LABELS: [&str; 9] = [
    "INQUIRY",
    "INQUIRY_FULL",
    "REPLY",
    "BATCH",
    "WRITE",
    "READ",
    "WRITE_BACK",
    "ACK",
    "DL_PREV",
];

/// Which register protocol a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The synchronous protocol (Figs. 1–2, Theorem 1).
    Sync,
    /// The eventually synchronous quorum protocol (Figs. 4–6).
    Es,
}

/// How large a world the run builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few hundred ticks of a small world, for smoke tests.
    Tiny,
}

/// One workload's parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Protocol.
    pub protocol: Protocol,
    /// Bootstrap population.
    pub n: usize,
    /// Simulated ticks per world.
    pub ticks: u64,
    /// Delay bound δ in ticks.
    pub delta: u64,
    /// Register keys (1 = the `SoloSpace` path).
    pub keys: u32,
    /// Writer roster and per-key concurrent-write cap.
    pub writers: usize,
    /// Zipf exponent of key popularity (keyed only).
    pub zipf: f64,
    /// Absolute churn: joins (and leaves) per tick.
    pub joins_per_tick: f64,
    /// Expected reads per tick (Poisson).
    pub reads_per_tick: f64,
    /// Ticks between write beats.
    pub write_every: u64,
    /// Global stabilisation time (eventually synchronous network only).
    pub gst: Option<u64>,
    /// A message-loss window `(from, until, probability)`.
    pub drop: Option<(u64, u64, f64)>,
    /// Whether joiners re-fire a silent inquiry after 2δ.
    pub retransmit: bool,
    /// Ticks before the end at which churn and workload stop, so every
    /// operation in flight can finish.
    pub drain: u64,
}

impl Spec {
    /// The named workload at `size`, or `None` for an unknown name.
    pub fn named(name: &str, size: Size) -> Option<Spec> {
        let tiny = size == Size::Tiny;
        match name {
            "solo_sync_soak" => Some(Spec {
                name: "solo_sync_soak",
                protocol: Protocol::Sync,
                n: if tiny { 200 } else { 5000 },
                ticks: if tiny { 300 } else { 2400 },
                delta: 4,
                keys: 1,
                writers: 1,
                zipf: 0.0,
                joins_per_tick: 0.5,
                reads_per_tick: 10.0,
                write_every: 12,
                gst: None,
                drop: None,
                retransmit: false,
                drain: 48,
            }),
            "keyed_zipf_space" => Some(Spec {
                name: "keyed_zipf_space",
                protocol: Protocol::Sync,
                n: if tiny { 60 } else { 125 },
                ticks: if tiny { 200 } else { 1200 },
                delta: 3,
                keys: if tiny { 32 } else { 256 },
                writers: 4,
                zipf: 1.0,
                joins_per_tick: 0.4,
                reads_per_tick: 8.0,
                write_every: 9,
                gst: None,
                drop: None,
                retransmit: false,
                drain: 36,
            }),
            "es_lossy_quorum" => Some(Spec {
                name: "es_lossy_quorum",
                protocol: Protocol::Es,
                n: if tiny { 40 } else { 200 },
                ticks: if tiny { 300 } else { 3000 },
                delta: 4,
                keys: 1,
                writers: 1,
                zipf: 0.0,
                // Half the paper's ES churn bound c·n < 1/(3δ).
                joins_per_tick: 0.5 / 12.0,
                reads_per_tick: 4.0,
                write_every: 2,
                gst: Some(50),
                drop: Some((50, if tiny { 150 } else { 1500 }, 0.03)),
                retransmit: true,
                drain: 48,
            }),
            _ => None,
        }
    }

    /// One line stating every parameter.
    pub fn describe(&self) -> String {
        format!(
            "{}: protocol={:?} n={} ticks={} delta={} keys={} writers={} zipf={} \
             joins/tick={:.4} reads/tick={} write_every={} gst={:?} drop={:?} \
             retransmit={} drain={}",
            self.name,
            self.protocol,
            self.n,
            self.ticks,
            self.delta,
            self.keys,
            self.writers,
            self.zipf,
            self.joins_per_tick,
            self.reads_per_tick,
            self.write_every,
            self.gst,
            self.drop,
            self.retransmit,
            self.drain,
        )
    }

    fn stop_at(&self) -> Time {
        Time::at(self.ticks.saturating_sub(self.drain).max(1))
    }
}

/// Operation counts of one world, from its histories and counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Joins invoked (churn arrivals).
    pub joins_invoked: u64,
    /// Joins completed.
    pub joins_completed: u64,
    /// Reads and writes invoked.
    pub client_invoked: u64,
    /// Reads and writes completed.
    pub client_completed: u64,
    /// Requests the world refused (`ops.skipped_busy` + `workload.skipped`).
    pub refused: u64,
    /// Operations by a process that stayed to the end yet never completed.
    pub stuck: u64,
    /// Reads the regularity checker flags.
    pub irregular: u64,
}

impl Ops {
    /// Operations attempted: invoked plus refused.
    pub fn attempted(&self) -> u64 {
        self.joins_invoked + self.client_invoked + self.refused
    }

    /// Operations failed: stuck, refused or irregular.
    pub fn failed(&self) -> u64 {
        self.stuck + self.refused + self.irregular
    }

    /// Operations completed (joins and client ops).
    pub fn completed(&self) -> u64 {
        self.joins_completed + self.client_completed
    }
}

/// Network counters of one world.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Copies sent (attempted), all labels.
    pub sent: u64,
    /// Copies sent per label of [`LABELS`], then "other".
    pub sent_by_label: Vec<u64>,
    /// Copies delivered to a live process.
    pub delivered: u64,
    /// Copies addressed to a departed process.
    pub dropped_departed: u64,
    /// Copies the fault layer dropped.
    pub dropped_faults: u64,
    /// Copies slower than δ after the network's synchrony point.
    pub delta_overruns: u64,
}

/// Everything one world reports.
#[derive(Debug)]
pub struct WorldRun {
    /// Host seconds in `World::new` plus bootstrap (protection, faults).
    pub setup_s: f64,
    /// Host seconds in `World::run_until`.
    pub sim_s: f64,
    /// Host seconds in the atomicity checker, over every key.
    pub atomicity_s: f64,
    /// Host seconds in the liveness checker and the join-consistency check.
    pub liveness_s: f64,
    /// Events the world processed.
    pub events: u64,
    /// Operation counts.
    pub ops: Ops,
    /// Reads the checkers judged.
    pub reads_checked: u64,
    /// Whether every key is regular.
    pub regular: bool,
    /// Whether every operation of a staying process completed and every
    /// join completed in all keys at once.
    pub live: bool,
    /// Wall-clock-free digest of the op histories and run totals.
    pub digest: u64,
    /// Simulated-time p99 latencies of joins, reads and writes, in ticks.
    pub p99_ticks: [u64; 3],
    /// Network counters.
    pub net: NetStats,
    /// Churn arrivals and departures.
    pub churn: (u64, u64),
    /// Writes the workload declined because the key was at capacity.
    pub write_gated: u64,
    /// Requests refused as `ops.skipped_busy`.
    pub skipped_busy: u64,
    /// Requests refused as `workload.skipped`.
    pub workload_skipped: u64,
    /// Minor page faults taken while the world was built and run.
    pub minor_faults: u64,
    /// What the decorators recorded (tick clock always; the rest only when
    /// traced).
    pub recorded: Recorded,
}

impl WorldRun {
    /// Set-up, simulation and checking: what a user waits for.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.sim_s + self.check_s()
    }

    /// Host seconds in the checkers.
    pub fn check_s(&self) -> f64 {
        self.atomicity_s + self.liveness_s
    }
}

/// Churn going quiet at `stop_at`, so the drain window sees no arrivals.
#[derive(Debug)]
struct StopAfter {
    inner: ConstantRate,
    stop_at: Time,
}

impl ChurnModel for StopAfter {
    fn refreshes(&mut self, now: Time, n: usize, rng: &mut DetRng) -> usize {
        if now >= self.stop_at {
            0
        } else {
            self.inner.refreshes(now, n, rng)
        }
    }

    fn nominal_rate(&self) -> Option<f64> {
        self.inner.nominal_rate()
    }
}

/// Runs one world of `spec` seeded with `seed`; `traced` installs every
/// timing decorator.
pub fn run(spec: &Spec, seed: u64, traced: bool) -> WorldRun {
    with_factory(spec, RunJob { spec, seed, traced })
}

/// Builds one world of `spec` and drops it; returns the set-up seconds.
pub fn setup_only(spec: &Spec, seed: u64) -> f64 {
    with_factory(spec, SetupJob { spec, seed })
}

/// Work to do with a concrete protocol factory (a closure cannot be
/// generic over the factory type, a trait method can).
trait Job {
    type Out;
    fn on<F>(self, factory: F) -> Self::Out
    where
        F: SpaceFactory,
        F::Proc: RegisterSpaceProcess<Val = u64>,
        <F::Proc as RegisterSpaceProcess>::Msg: Payload;
}

/// Hands `spec`'s protocol factory to `job`: the one place the protocol,
/// its retransmit policy and the key count become a concrete type.
fn with_factory<J: Job>(spec: &Spec, job: J) -> J::Out {
    let delta = Span::ticks(spec.delta);
    let retransmit = spec
        .retransmit
        .then(|| RetransmitConfig::after(delta.times(2)));
    match spec.protocol {
        Protocol::Sync => {
            let sync = SyncFactory::new(SyncConfig::new(delta)).with_retransmit(retransmit);
            if spec.keys > 1 {
                job.on(SpaceOf::new(sync, spec.keys))
            } else {
                job.on(sync)
            }
        }
        Protocol::Es => {
            assert_eq!(spec.keys, 1, "the ES workload runs one key");
            job.on(EsFactory::new(EsConfig::new(spec.n)).with_retransmit(retransmit))
        }
    }
}

struct RunJob<'a> {
    spec: &'a Spec,
    seed: u64,
    traced: bool,
}

impl Job for RunJob<'_> {
    type Out = WorldRun;

    fn on<F>(self, factory: F) -> WorldRun
    where
        F: SpaceFactory,
        F::Proc: RegisterSpaceProcess<Val = u64>,
        <F::Proc as RegisterSpaceProcess>::Msg: Payload,
    {
        if self.traced {
            drive(TimedFactory(factory), self.spec, self.seed, true)
        } else {
            drive(factory, self.spec, self.seed, false)
        }
    }
}

struct SetupJob<'a> {
    spec: &'a Spec,
    seed: u64,
}

impl Job for SetupJob<'_> {
    type Out = f64;

    fn on<F>(self, factory: F) -> f64
    where
        F: SpaceFactory,
        F::Proc: RegisterSpaceProcess<Val = u64>,
        <F::Proc as RegisterSpaceProcess>::Msg: Payload,
    {
        let t0 = stamp();
        let world = build(factory, self.spec, self.seed, false);
        let ns = since_ns(t0);
        drop(world);
        probe::take();
        ns as f64 * 1e-9
    }
}

/// `World::new` plus bootstrap: the writer roster protected and the loss
/// window installed.
fn build<F>(factory: F, spec: &Spec, seed: u64, traced: bool) -> World<F>
where
    F: SpaceFactory,
    F::Proc: RegisterSpaceProcess<Val = u64>,
{
    let delta = Span::ticks(spec.delta);
    let stop = spec.stop_at();
    let mut delay: Box<dyn DelayModel> = match spec.gst {
        Some(gst) => Box::new(EventuallySynchronous::with_default_pre(
            Time::at(gst),
            delta,
        )),
        None => Box::new(Synchronous::new(delta)),
    };
    if traced {
        delay = Box::new(TimedDelay(delay));
    }
    let churn = StopAfter {
        inner: ConstantRate::new(spec.joins_per_tick / spec.n as f64),
        stop_at: stop,
    };
    let write_every = Span::ticks(spec.write_every);
    let workload: Box<dyn Workload> = if spec.keys > 1 {
        Box::new(
            ZipfWorkload::new(
                ZipfKeys::new(spec.keys, spec.zipf),
                write_every,
                spec.reads_per_tick,
            )
            .stopping_at(stop),
        )
    } else {
        Box::new(RateWorkload::new(write_every, spec.reads_per_tick).stopping_at(stop))
    };
    let mut world = World::new(
        factory,
        WorldConfig {
            n: spec.n,
            initial: 0,
            delay,
            churn: ChurnDriver::new(
                Box::new(ChurnClock::new(Box::new(churn), traced)),
                LeaveSelector::Random,
                IdSource::starting_at(spec.n as u64),
            ),
            workload,
            seed,
            trace: false,
            writer_policy: WriterPolicy::FixedProtected,
            writers: spec.writers,
        },
    );
    for w in 0..spec.writers as u64 {
        world.protect(NodeId::from_raw(w));
    }
    if let Some((from, until, p)) = spec.drop {
        world.set_faults(FaultPlan::none().with_drop(DropRule::lossy_everything(
            Time::at(from),
            Time::at(until),
            p,
        )));
    }
    world
}

/// Builds, runs and checks one world.
fn drive<F>(factory: F, spec: &Spec, seed: u64, traced: bool) -> WorldRun
where
    F: SpaceFactory,
    F::Proc: RegisterSpaceProcess<Val = u64>,
{
    probe::take();
    let faults_before = rusage::now().minor_faults;
    let t0 = stamp();
    let mut world = build(factory, spec, seed, traced);
    let setup_ns = since_ns(t0);

    let t0 = stamp();
    world.run_until(Time::at(spec.ticks));
    let sim_ns = since_ns(t0);
    let minor_faults = rusage::now().minor_faults.saturating_sub(faults_before);
    let recorded = probe::take();

    let events = world.events_processed();
    let (space, presence, metrics, _trace, network) = world.into_space_outputs();

    let mut atomicity_ns = 0;
    let mut liveness_ns = 0;
    let mut regular = true;
    let mut live = true;
    let mut ops = Ops::default();
    let mut reads_checked = 0;
    for (key, h) in space.iter() {
        let t0 = stamp();
        let atomicity = AtomicityChecker::check(h);
        atomicity_ns += since_ns(t0);
        let t0 = stamp();
        let liveness = LivenessChecker::check(h);
        liveness_ns += since_ns(t0);

        let irregular = atomicity.violation_count() - atomicity.inversions;
        regular &= irregular == 0;
        live &= liveness.is_ok();
        ops.irregular += irregular as u64;
        reads_checked += atomicity.checked_reads as u64;
        // A join is recorded in every key's history; count it once.
        let anchor = key.as_raw() == 0;
        ops.stuck += liveness
            .stuck_ops
            .iter()
            .filter(|&&op| anchor || h.get(op).is_some_and(|r| !matches!(r.kind, OpKind::Join)))
            .count() as u64;
    }
    let t0 = stamp();
    live &= space.joins_consistent();
    liveness_ns += since_ns(t0);

    let skipped_busy = metrics.counter("ops.skipped_busy");
    let workload_skipped = metrics.counter("workload.skipped");
    ops.refused = skipped_busy + workload_skipped;
    let p99_ticks = count_ops(&space, &mut ops);

    let mut sent_by_label = vec![0; LABELS.len() + 1];
    for (label, count) in network.sent_by_label() {
        let slot = LABELS
            .iter()
            .position(|&l| l == label)
            .unwrap_or(LABELS.len());
        sent_by_label[slot] += count;
    }
    let net = NetStats {
        sent: network.total_sent(),
        sent_by_label,
        delivered: metrics.counter("net.delivered"),
        dropped_departed: network.dropped_to_departed(),
        dropped_faults: network.dropped_to_faults(),
        delta_overruns: network.delta_overruns(),
    };
    let arrivals = presence.total_arrivals() as u64;
    let departures = presence.total_departures() as u64;

    let mut digest = Fnv::new();
    for (key, h) in space.iter() {
        digest.word(u64::from(key.as_raw()));
        for r in h.ops() {
            digest.word(r.op.as_raw());
            digest.word(r.node.as_raw());
            match &r.kind {
                OpKind::Join => digest.word(0),
                OpKind::Read { returned } => {
                    digest.word(1);
                    digest.value(returned.as_ref().map(|v| v.as_ref()));
                }
                OpKind::Write { value, index } => {
                    digest.word(2);
                    digest.value(Some(value.as_ref()));
                    digest.word(*index as u64);
                }
            }
            digest.word(r.invoked_at.ticks());
            digest.word(r.completed_at.map_or(u64::MAX, Time::ticks));
        }
    }
    for v in [events, net.sent, ops.completed(), arrivals, departures] {
        digest.word(v);
    }

    WorldRun {
        setup_s: setup_ns as f64 * 1e-9,
        sim_s: sim_ns as f64 * 1e-9,
        atomicity_s: atomicity_ns as f64 * 1e-9,
        liveness_s: liveness_ns as f64 * 1e-9,
        events,
        ops,
        reads_checked,
        regular,
        live,
        digest: digest.0,
        p99_ticks,
        net,
        churn: (
            metrics.counter("churn.joins"),
            metrics.counter("churn.leaves"),
        ),
        write_gated: metrics.counter("workload.write_gated"),
        skipped_busy,
        workload_skipped,
        minor_faults,
        recorded,
    }
}

/// Counts invoked and completed operations into `ops` and returns the
/// nearest-rank p99 simulated latency of joins, reads and writes (0 for a
/// kind with no completed operation).
fn count_ops(space: &SpaceHistory<Option<u64>>, ops: &mut Ops) -> [u64; 3] {
    let mut latencies: [Vec<u64>; 3] = Default::default();
    for (key, h) in space.iter() {
        for r in h.ops() {
            let kind = match r.kind {
                OpKind::Join if key.as_raw() != 0 => continue,
                OpKind::Join => 0,
                OpKind::Read { .. } => 1,
                OpKind::Write { .. } => 2,
            };
            if kind == 0 {
                ops.joins_invoked += 1;
            } else {
                ops.client_invoked += 1;
            }
            if let Some(done) = r.completed_at {
                if kind == 0 {
                    ops.joins_completed += 1;
                } else {
                    ops.client_completed += 1;
                }
                latencies[kind].push(done.since(r.invoked_at).as_ticks());
            }
        }
    }
    latencies.map(|mut l| {
        l.sort_unstable();
        crate::stats::nearest_rank(&l, 0.99).unwrap_or(0)
    })
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn value(&mut self, v: Option<Option<&u64>>) {
        match v {
            None => self.word(u64::MAX),
            Some(None) => self.word(u64::MAX - 1),
            Some(Some(&x)) => self.word(x),
        }
    }
}
