//! Transparent timing decorators around each layer's public API.
//!
//! The world is generic over [`SpaceFactory`] and takes boxed
//! [`DelayModel`] and [`ChurnModel`] objects, so those layers can be
//! measured from outside: a decorator forwards each call unchanged and
//! records its call count and host duration in a thread-local `Probe`.
//! Wrapped calls never nest — a process step returns its effects before the
//! world routes them, the delay model is sampled while routing, and churn
//! runs from the tick handler — so each call's duration is its self time,
//! and the part of `World::run_until` no decorator covers is the event
//! queue, network routing and fan-out, and the world's own bookkeeping.
//!
//! The workload is the one boxed object left unwrapped: `Workload::tick`
//! takes a `WriteAccess` that `dynareg-testkit` does not export, so no
//! decorator can be written outside that crate. Its time stays in the
//! residual.
//!
//! Decorators never read or advance a random stream and never reorder a
//! call, so a traced run's digest equals the untraced run's; the benchmark
//! checks that on every traced run.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use dynareg_churn::ChurnModel;
use dynareg_core::es::EsMsg;
use dynareg_core::space::{RegisterSpaceProcess, SpaceEffect, SpaceMsg};
use dynareg_core::sync::SyncMsg;
use dynareg_net::DelayModel;
use dynareg_sim::{DetRng, NodeId, OpId, RegisterId, Span, Time};
use dynareg_testkit::SpaceFactory;

/// Reads the host clock. The single wall-clock site of the benchmark:
/// every duration it reports starts and ends here.
#[allow(clippy::disallowed_methods)] // benchmark timing around calls into the simulator, never fed back into it
#[inline]
pub fn stamp() -> Instant {
    Instant::now() // detlint: allow(wall-clock) -- benchmark timing around simulator calls; no reading reaches the simulation
}

/// Nanoseconds from `t0` to now.
#[inline]
pub fn since_ns(t0: Instant) -> u64 {
    u64::try_from(stamp().duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// One timed call site: how often it ran and for how long in total.
#[derive(Debug)]
pub struct Site {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl Site {
    const fn new() -> Site {
        Site {
            calls: Cell::new(0),
            ns: Cell::new(0),
        }
    }

    fn add(&self, ns: u64) {
        self.calls.set(self.calls.get() + 1);
        self.ns.set(self.ns.get() + ns);
    }

    fn take(&self) -> Timing {
        Timing {
            calls: self.calls.replace(0),
            ns: self.ns.replace(0),
        }
    }
}

/// A site's totals, detached from the probe.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent inside them.
    pub ns: u64,
}

impl Timing {
    /// Total seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }

    /// Sum of two sites.
    pub fn plus(self, other: Timing) -> Timing {
        Timing {
            calls: self.calls + other.calls,
            ns: self.ns + other.ns,
        }
    }
}

/// Log-linear histogram of nanosecond durations: exact below 64, then 32
/// buckets per power of two (at most ~3% relative error).
#[derive(Debug)]
pub struct LogHist {
    counts: Vec<u64>,
}

const SUB_BITS: u32 = 5;
const LINEAR: u64 = 64;

impl LogHist {
    const fn new() -> LogHist {
        LogHist { counts: Vec::new() }
    }

    fn bucket(v: u64) -> usize {
        if v < LINEAR {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= 6
        let mantissa = (v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (LINEAR + u64::from(exp - 6) * (1 << SUB_BITS) + mantissa) as usize
    }

    /// The smallest value that falls into bucket `b`.
    fn floor_of(b: usize) -> u64 {
        let b = b as u64;
        if b < LINEAR {
            return b;
        }
        let exp = (b - LINEAR) / (1 << SUB_BITS) + 6;
        let mantissa = (b - LINEAR) % (1 << SUB_BITS);
        (1 << exp) | (mantissa << (exp - u64::from(SUB_BITS)))
    }

    fn record(&mut self, v: u64) {
        let b = Self::bucket(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
    }

    /// Nearest-rank quantile `q` in `[0, 1]` (bucket floor); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::floor_of(b);
            }
        }
        Self::floor_of(self.counts.len() - 1)
    }
}

/// Everything the decorators record during one world.
#[derive(Debug)]
struct Probe {
    deliver: Site,
    timer: Site,
    enter: Site,
    client: Site,
    spawn: Site,
    delay: Site,
    churn: Site,
    effects: Cell<u64>,
    payload_entries: Cell<u64>,
    join_retransmits: Cell<u64>,
    deliver_hist: RefCell<LogHist>,
    last_tick: Cell<Option<Instant>>,
    tick_ns: RefCell<Vec<u64>>,
}

thread_local! {
    static PROBE: Probe = const {
        Probe {
            deliver: Site::new(),
            timer: Site::new(),
            enter: Site::new(),
            client: Site::new(),
            spawn: Site::new(),
            delay: Site::new(),
            churn: Site::new(),
            effects: Cell::new(0),
            payload_entries: Cell::new(0),
            join_retransmits: Cell::new(0),
            deliver_hist: RefCell::new(LogHist::new()),
            last_tick: Cell::new(None),
            tick_ns: RefCell::new(Vec::new()),
        }
    };
}

/// What the decorators recorded since the last [`take`].
#[derive(Debug)]
pub struct Recorded {
    /// `on_message_into` calls (message deliveries into the space).
    pub deliver: Timing,
    /// `on_timer` calls.
    pub timer: Timing,
    /// `on_enter` calls (a joiner starting its join).
    pub enter: Timing,
    /// `on_read` + `on_write` calls.
    pub client: Timing,
    /// `SpaceFactory::space_joiner` calls (building a joiner's space).
    pub spawn: Timing,
    /// `DelayModel::sample` calls (one per routed copy).
    pub delay: Timing,
    /// `ChurnModel::refreshes` + `extra_joins` calls.
    pub churn: Timing,
    /// Effects the space emitted across all its calls.
    pub effects: u64,
    /// Inner protocol messages carried by delivered messages (a `Batch`
    /// counts its entries, any other message counts one).
    pub payload_entries: u64,
    /// `Retransmit` markers the space emitted.
    pub join_retransmits: u64,
    /// Durations of single deliveries.
    pub deliver_hist: LogHist,
    /// Host nanoseconds between consecutive simulated ticks.
    pub tick_ns: Vec<u64>,
}

impl Recorded {
    /// All core-layer (register space) call sites together.
    pub fn core(&self) -> Timing {
        self.deliver
            .plus(self.timer)
            .plus(self.enter)
            .plus(self.client)
            .plus(self.spawn)
    }
}

/// Detaches everything recorded so far and resets the probe.
pub fn take() -> Recorded {
    PROBE.with(|p| Recorded {
        deliver: p.deliver.take(),
        timer: p.timer.take(),
        enter: p.enter.take(),
        client: p.client.take(),
        spawn: p.spawn.take(),
        delay: p.delay.take(),
        churn: p.churn.take(),
        effects: p.effects.replace(0),
        payload_entries: p.payload_entries.replace(0),
        join_retransmits: p.join_retransmits.replace(0),
        deliver_hist: p.deliver_hist.replace(LogHist::new()),
        tick_ns: {
            p.last_tick.set(None);
            p.tick_ns.take()
        },
    })
}

fn note_effects<M, V>(effects: &[SpaceEffect<M, V>]) {
    PROBE.with(|p| {
        p.effects.set(p.effects.get() + effects.len() as u64);
        let refires = effects
            .iter()
            .filter(|e| matches!(e, SpaceEffect::Retransmit))
            .count() as u64;
        p.join_retransmits.set(p.join_retransmits.get() + refires);
    });
}

/// Number of inner protocol messages one wire message carries — the unit
/// of the core layer's real work on keyed spaces.
pub trait Payload {
    /// Inner messages carried.
    fn entries(&self) -> u64;
}

impl<M> Payload for SpaceMsg<M> {
    fn entries(&self) -> u64 {
        self.payload_count() as u64
    }
}

impl<V> Payload for SyncMsg<V> {
    fn entries(&self) -> u64 {
        1
    }
}

impl<V> Payload for EsMsg<V> {
    fn entries(&self) -> u64 {
        1
    }
}

/// A space factory whose every built process is a [`TimedSpace`]; joiner
/// construction is timed as part of the core layer.
#[derive(Debug, Clone)]
pub struct TimedFactory<F>(pub F);

impl<F: SpaceFactory> SpaceFactory for TimedFactory<F>
where
    <F::Proc as RegisterSpaceProcess>::Msg: Payload,
{
    type Proc = TimedSpace<F::Proc>;

    fn key_count(&self) -> u32 {
        self.0.key_count()
    }

    fn space_bootstrap(
        &self,
        id: NodeId,
        initial: <F::Proc as RegisterSpaceProcess>::Val,
    ) -> TimedSpace<F::Proc> {
        TimedSpace(self.0.space_bootstrap(id, initial))
    }

    fn space_joiner(&self, id: NodeId, join_op: OpId) -> TimedSpace<F::Proc> {
        let t0 = stamp();
        let proc_ = self.0.space_joiner(id, join_op);
        let ns = since_ns(t0);
        PROBE.with(|p| p.spawn.add(ns));
        TimedSpace(proc_)
    }

    fn space_name(&self) -> &'static str {
        self.0.space_name()
    }

    fn space_msg_label(msg: &<F::Proc as RegisterSpaceProcess>::Msg) -> &'static str {
        F::space_msg_label(msg)
    }
}

/// A register-space process whose every step is timed.
#[derive(Debug)]
pub struct TimedSpace<P>(P);

type Effects<P> =
    Vec<SpaceEffect<<P as RegisterSpaceProcess>::Msg, <P as RegisterSpaceProcess>::Val>>;

impl<P: RegisterSpaceProcess> TimedSpace<P> {
    fn timed(
        &mut self,
        site: fn(&Probe) -> &Site,
        step: impl FnOnce(&mut P) -> Effects<P>,
    ) -> Effects<P> {
        let t0 = stamp();
        let out = step(&mut self.0);
        let ns = since_ns(t0);
        PROBE.with(|p| site(p).add(ns));
        note_effects(&out);
        out
    }
}

impl<P> RegisterSpaceProcess for TimedSpace<P>
where
    P: RegisterSpaceProcess,
    P::Msg: Payload,
{
    type Msg = P::Msg;
    type Val = P::Val;

    fn id(&self) -> NodeId {
        self.0.id()
    }

    fn is_active(&self) -> bool {
        self.0.is_active()
    }

    fn key_count(&self) -> u32 {
        self.0.key_count()
    }

    fn on_enter(&mut self, now: Time) -> Effects<P> {
        self.timed(|p| &p.enter, |inner| inner.on_enter(now))
    }

    fn on_message_into(&mut self, now: Time, from: NodeId, msg: P::Msg, out: &mut Effects<P>) {
        let entries = msg.entries();
        let before = out.len();
        let t0 = stamp();
        self.0.on_message_into(now, from, msg, out);
        let ns = since_ns(t0);
        PROBE.with(|p| {
            p.deliver.add(ns);
            p.deliver_hist.borrow_mut().record(ns);
            p.payload_entries.set(p.payload_entries.get() + entries);
        });
        note_effects(&out[before..]);
    }

    fn on_timer(&mut self, now: Time, tag: u64) -> Effects<P> {
        self.timed(|p| &p.timer, |inner| inner.on_timer(now, tag))
    }

    fn on_read(&mut self, now: Time, key: RegisterId, op: OpId) -> Effects<P> {
        self.timed(|p| &p.client, |inner| inner.on_read(now, key, op))
    }

    fn on_write(&mut self, now: Time, key: RegisterId, op: OpId, value: P::Val) -> Effects<P> {
        self.timed(|p| &p.client, |inner| inner.on_write(now, key, op, value))
    }
}

/// A delay model whose every sample is timed (the net layer's per-copy
/// latency draw).
#[derive(Debug)]
pub struct TimedDelay(pub Box<dyn DelayModel>);

impl DelayModel for TimedDelay {
    fn sample(&self, now: Time, from: NodeId, to: NodeId, rng: &mut DetRng) -> Span {
        let t0 = stamp();
        let span = self.0.sample(now, from, to, rng);
        let ns = since_ns(t0);
        PROBE.with(|p| p.delay.add(ns));
        span
    }

    fn delta(&self) -> Option<Span> {
        self.0.delta()
    }

    fn synchronous_from(&self) -> Time {
        self.0.synchronous_from()
    }
}

/// The churn decorator, which doubles as the per-tick clock.
///
/// The world asks its churn model for the tick's refreshes exactly once
/// per simulated tick, at the same point of the tick handler, so
/// consecutive stamps taken there give the host time of one simulated
/// tick. Traced, it also times each churn decision as the churn layer.
#[derive(Debug)]
pub struct ChurnClock {
    inner: Box<dyn ChurnModel>,
    traced: bool,
}

impl ChurnClock {
    /// Wraps `inner`; `traced` also times each churn call.
    pub fn new(inner: Box<dyn ChurnModel>, traced: bool) -> ChurnClock {
        ChurnClock { inner, traced }
    }
}

impl ChurnModel for ChurnClock {
    fn refreshes(&mut self, now: Time, n: usize, rng: &mut DetRng) -> usize {
        let t0 = stamp();
        PROBE.with(|p| {
            if let Some(prev) = p.last_tick.replace(Some(t0)) {
                let ns = u64::try_from(t0.duration_since(prev).as_nanos()).unwrap_or(u64::MAX);
                p.tick_ns.borrow_mut().push(ns);
            }
        });
        let k = self.inner.refreshes(now, n, rng);
        if self.traced {
            let ns = since_ns(t0);
            PROBE.with(|p| p.churn.add(ns));
        }
        k
    }

    fn extra_joins(&mut self, now: Time, n: usize, rng: &mut DetRng) -> usize {
        if !self.traced {
            return self.inner.extra_joins(now, n, rng);
        }
        let t0 = stamp();
        let k = self.inner.extra_joins(now, n, rng);
        let ns = since_ns(t0);
        PROBE.with(|p| p.churn.add(ns));
        k
    }

    fn nominal_rate(&self) -> Option<f64> {
        self.inner.nominal_rate()
    }
}

/// Mean host cost of one empty timed call — two clock reads and the
/// probe update — measured over `iterations` calls.
pub fn span_ns(iterations: u32) -> f64 {
    let site = Site::new();
    let t0 = stamp();
    for _ in 0..iterations {
        let t = stamp();
        std::hint::black_box(());
        site.add(since_ns(t));
    }
    std::hint::black_box(&site);
    since_ns(t0) as f64 / f64::from(iterations.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_hist_buckets_are_monotone_and_tight() {
        let mut prev = 0;
        for v in [0u64, 1, 63, 64, 65, 100, 1000, 4096, 123_456, 10_000_000] {
            let b = LogHist::bucket(v);
            assert!(b >= prev, "bucket order at {v}");
            prev = b;
            let floor = LogHist::floor_of(b);
            assert!(floor <= v, "floor {floor} above {v}");
            assert!(
                v - floor <= v / 32 + 1,
                "bucket of {v} too wide (floor {floor})"
            );
        }
    }

    #[test]
    fn log_hist_quantiles() {
        let mut h = LogHist::new();
        for v in 1..=100u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        assert!((480..=500).contains(&p50), "p50 {p50}");
        assert!(h.quantile(0.99) >= 960);
        assert_eq!(LogHist::new().quantile(0.5), 0);
    }
}
