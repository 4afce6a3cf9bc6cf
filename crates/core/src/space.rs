//! Keyed register spaces: many registers over one churn substrate.
//!
//! The paper implements **one** anonymous register per system; its §7 asks
//! for richer objects. This module generalizes the abstraction to a
//! *register space* — a dense set of keys `r0 … r(k−1)`, each an
//! independent register run by its own protocol instance — while paying
//! the membership machinery (join handshake, presence, broadcast fan-out)
//! **once per process**, not once per key:
//!
//! * [`RegisterSpaceProcess`] is the runtime-facing trait: every client
//!   operation and completion addresses a `(RegisterId, op)` pair, and
//!   effects carry their key ([`SpaceEffect`]).
//! * [`RegisterSpace`] multiplexes `k` instances of any
//!   [`RegisterProcess`] behind a **single shared join handshake**: a
//!   joiner inquires once ([`SpaceMsg::JoinAll`]), every responder answers
//!   with *all* keys' states in one physical reply
//!   ([`SpaceMsg::Batch`]), and join-phase timers are shared. Steady-state
//!   traffic is tagged per key ([`SpaceMsg::Keyed`]); timer tags are
//!   key-partitioned.
//! * [`SoloSpace`] adapts a single [`RegisterProcess`] to the space trait
//!   with **zero wire or behavioural overhead** — raw protocol messages,
//!   no key tags. It is the pre-redesign single-register path, kept as the
//!   oracle the 1-key equivalence property tests compare against.
//!
//! # The shared handshake's contract
//!
//! [`RegisterSpace`] coalesces the join phase generically, which requires
//! two properties both paper protocols have:
//!
//! 1. **Join-phase broadcasts are key-agnostic.** An `INQUIRY` carries no
//!    register state, so when several instances inquire in the same step
//!    the space sends one [`SpaceMsg::JoinAll`] (the lowest emitting key's
//!    payload) and lets every responder answer for every key.
//! 2. **Join-phase timers are uniform.** Instances that are still joining
//!    request the same `(delay, tag)` waits in the same step (the sync
//!    protocol's `wait(δ)` / `wait(2δ)`), so the space arms one shared
//!    timer and dispatches its expiry to every still-joining instance.
//!
//! Steady-state operation needs no contract: a read/write/timer touches
//! exactly one key's instance and its effects are tagged with that key.
//!
//! # Key-sharded join replies
//!
//! The shared handshake's full-state reply transfers `K` payload entries
//! per responder — `K·n` entries per join, which is what collapses join
//! throughput at large key counts. [`ShardConfig`] shards the reply side:
//! every responder belongs to a deterministic shard
//! `shard(p) = hash(node_id) mod G` ([`shard_of_node`]) and answers a
//! (non-full) [`SpaceMsg::JoinAll`] only for the keys of *its* shard
//! (`key mod G`), so one reply carries `K/G` entries. The joiner still
//! broadcasts a single inquiry and activates a shard's keys only once
//! that shard met its per-shard reply quorum. Quorum-based protocols (ES)
//! size the per-key join quorum to the shard (`EsConfig::join_quorum`) —
//! the quorum-per-shard liveness trade the fleet tier's phase diagrams
//! measure. `G = 1` is the legacy full-reply handshake, bit for bit.
//!
//! # Join handshake lifecycle
//!
//! The paper's join assumes reliable channels. Both adapters hand their
//! join-phase steps to one joiner-side state machine that re-fires a
//! stalled inquiry — a shard starved of replies (`G > 1`), or a handshake
//! swallowed by message loss under a [`RetransmitConfig`] (`G = 1`) —
//! from one reserved timer ([`RETRANSMIT_TAG`]). The lifecycle, its two
//! policies and their guarantees are specified in "Join handshake
//! lifecycle" of `docs/PROTOCOL.md` at the repository root.

use std::collections::BTreeSet;
use std::fmt;

use dynareg_sim::{NodeId, OpId, RegisterId, Span, Time};

use crate::actor::{Effect, OpOutcome, RegisterProcess, Value};

/// Wire messages of a register space over inner protocol messages `M`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceMsg<M> {
    /// One register's protocol message, delivered to that key's instance.
    Keyed {
        /// The addressed register.
        key: RegisterId,
        /// The inner protocol payload.
        inner: M,
    },
    /// The shared join handshake: a joiner's single inquiry. A non-`full`
    /// inquiry is answered by each responder for its own key shard; a
    /// `full` inquiry (re-inquiries, and every inquiry of an unsharded
    /// space) is delivered to *every* key's instance at the receiver
    /// (join-phase broadcasts are key-agnostic; see the module docs).
    JoinAll {
        /// The inner inquiry payload.
        inner: M,
        /// Whether responders must answer for every key regardless of
        /// their shard (the starvation fallback; always effectively true
        /// when `G = 1`).
        full: bool,
    },
    /// The batched per-key answers to a fan-in delivery — all keys' states
    /// in one physical message (the other half of the shared handshake).
    Batch {
        /// `(key, payload)` pairs, in processing order.
        replies: Vec<(RegisterId, M)>,
    },
}

impl<M> SpaceMsg<M> {
    /// Number of inner protocol messages this physical message carries.
    pub fn payload_count(&self) -> usize {
        match self {
            SpaceMsg::Keyed { .. } | SpaceMsg::JoinAll { .. } => 1,
            SpaceMsg::Batch { replies } => replies.len(),
        }
    }
}

/// An output of a register-space state machine, interpreted by the
/// runtime. The mirror of [`Effect`] with the key carried wherever the
/// runtime needs it (completions and annotations); wire payloads carry
/// their key inside the message type instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceEffect<M, V> {
    /// Send `msg` point-to-point to `to`.
    Send {
        /// Recipient process.
        to: NodeId,
        /// Payload.
        msg: M,
    },
    /// Broadcast `msg` to every process in the system.
    Broadcast {
        /// Payload.
        msg: M,
    },
    /// Request a timer callback after `delay`, tagged with `tag`
    /// (key-partitioned by the space; opaque to the runtime).
    SetTimer {
        /// How long to wait.
        delay: Span,
        /// Discriminator handed back on expiry.
        tag: u64,
    },
    /// The space's join returned `ok`: **every** key's instance is active.
    /// Emitted exactly once per process.
    JoinComplete,
    /// A client operation on `key` returned.
    OpComplete {
        /// The addressed register.
        key: RegisterId,
        /// The operation.
        op: OpId,
        /// Its result.
        outcome: OpOutcome<V>,
    },
    /// Free-form annotation for traces, attributed to a key.
    Note {
        /// The annotating register.
        key: RegisterId,
        /// Message text.
        text: String,
    },
    /// The join handshake was re-fired after silence (see the module's
    /// "Join handshake lifecycle"). A marker, not a message: the runtime
    /// counts it (`join.retransmits`) and annotates the join span, but it
    /// is invisible to the event stream and the run digest.
    Retransmit,
}

/// A keyed register-space instance bound to one process: the runtime-facing
/// generalization of [`RegisterProcess`] where every client operation
/// addresses a `(RegisterId, op)` pair.
///
/// # Contract
///
/// Same shape as [`RegisterProcess`], lifted to the space: `on_enter` is
/// called once; `on_read`/`on_write` only after the space's single
/// [`SpaceEffect::JoinComplete`]; the runtime never overlaps two client
/// operations on the same *process* (per-process sequentiality — stricter
/// than per-key, matching the paper's sequential processes).
pub trait RegisterSpaceProcess: fmt::Debug {
    /// The space's wire message type.
    type Msg: Clone + fmt::Debug;
    /// The registers' value type.
    type Val: Value;

    /// This process's identity.
    fn id(&self) -> NodeId;

    /// Whether the space's join has returned (all keys active).
    fn is_active(&self) -> bool;

    /// Number of keys in the space.
    fn key_count(&self) -> u32;

    /// The process enters the system and starts its (shared) `join`.
    fn on_enter(&mut self, now: Time) -> Vec<SpaceEffect<Self::Msg, Self::Val>>;

    /// A message from `from` is delivered; effects append to `out` (the
    /// runtime calls this with a reused buffer — the delivery fast path).
    fn on_message_into(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Vec<SpaceEffect<Self::Msg, Self::Val>>,
    );

    /// Allocating convenience form of
    /// [`on_message_into`](RegisterSpaceProcess::on_message_into).
    fn on_message(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Self::Msg,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        let mut out = Vec::new();
        self.on_message_into(now, from, msg, &mut out);
        out
    }

    /// A timer set via [`SpaceEffect::SetTimer`] with this `tag` expired.
    fn on_timer(&mut self, now: Time, tag: u64) -> Vec<SpaceEffect<Self::Msg, Self::Val>>;

    /// The client invokes `read` on register `key`, identified by `op`.
    fn on_read(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>>;

    /// The client invokes `write(value)` on register `key`.
    fn on_write(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
        value: Self::Val,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>>;
}

/// The joiner-only state of the join handshake, shared by both adapters:
/// what a stalled join needs to re-fire its inquiry, and the two re-fire
/// decisions made on it. Boxed out of line by the adapters — absent on
/// bootstrap members and dropped once the join completes — so the
/// steady-state paths carry none of it.
///
/// The policy is fixed by the layout: a sharded space (`shards` set,
/// `G > 1`) re-fires *full* inquiries until every shard met its quorum;
/// otherwise the bounded [`RetransmitConfig`], if any, re-fires a silent
/// handshake. Adapters differ only in their wire (`wire`), their timer
/// tags (recorded as scheduled) and where the reply count comes from.
#[derive(Debug)]
struct JoinHandshake<M, W> {
    /// Puts an inquiry on the adapter's wire (`full` or not).
    wire: fn(M, bool) -> W,
    /// The unsharded retransmit policy (inert while `shards` is set).
    retransmit: Option<RetransmitConfig>,
    /// The sharded policy, set exactly when `G > 1`.
    shards: Option<ShardWait>,
    /// The inquiry payload once broadcast, kept for re-fires.
    inquiry: Option<M>,
    /// `(tag, delay)` of the join waits armed so far, so an intercepted or
    /// withheld expiry can re-arm itself.
    waits: Vec<(u64, Span)>,
    /// Whether the beat ([`RETRANSMIT_TAG`]) is outstanding.
    beat_armed: bool,
    /// Consecutive silent beats (the backoff exponent, plateaued).
    attempts: u32,
    /// Zero-reply interceptions consumed.
    used: u32,
    /// Reply count when the beat was last armed (progress detection).
    seen: usize,
}

/// The sharded policy's joiner-side quorum tracking.
#[derive(Debug)]
struct ShardWait {
    /// Distinct responders per shard needed before its keys may activate.
    quorum: usize,
    /// The beat period of timer-less (quorum) joins.
    every: Span,
    /// Per-shard distinct responders whose batches covered that shard's
    /// keys (one set per shard, so `heard.len() == G`).
    heard: Vec<BTreeSet<NodeId>>,
}

impl<M: Clone, W> JoinHandshake<M, W> {
    fn new(wire: fn(M, bool) -> W, retransmit: Option<RetransmitConfig>) -> Self {
        JoinHandshake {
            wire,
            retransmit,
            shards: None,
            inquiry: None,
            waits: Vec::new(),
            beat_armed: false,
            attempts: 0,
            used: 0,
            seen: 0,
        }
    }

    /// Installs the shard layout (`G = 1` clears the sharded policy).
    fn set_shards(&mut self, config: ShardConfig) {
        self.shards = (config.groups > 1).then(|| ShardWait {
            quorum: config.quorum,
            every: config.reinquire_every,
            heard: vec![BTreeSet::new(); config.groups as usize],
        });
    }

    /// Records the join's inquiry broadcast (the first one is kept).
    fn inquired(&mut self, inquiry: &M) {
        self.inquiry.get_or_insert_with(|| inquiry.clone());
    }

    /// Records a join wait armed under `tag`.
    fn armed(&mut self, tag: u64, delay: Span) {
        match self.waits.iter_mut().find(|(t, _)| *t == tag) {
            Some((_, d)) => *d = delay,
            None => self.waits.push((tag, delay)),
        }
    }

    /// The delay of the join wait armed under `tag`, if any.
    fn wait(&self, tag: u64) -> Option<Span> {
        self.waits.iter().find(|&&(t, _)| t == tag).map(|&(_, d)| d)
    }

    /// Records that `from` answered for the keys of `replies` (sharded
    /// quorum tracking).
    fn heard(&mut self, from: NodeId, replies: &[(RegisterId, M)]) {
        if let Some(s) = &mut self.shards {
            let groups = s.heard.len() as u32;
            for &(key, _) in replies {
                s.heard[shard_of_key(key, groups) as usize].insert(from);
            }
        }
    }

    /// Whether a shared wait's expiry must hold `key` back: the sharded
    /// inquiry is out and `key`'s shard is short of its reply quorum.
    fn withholds(&self, key: RegisterId) -> bool {
        self.inquiry.is_some()
            && self.shards.as_ref().is_some_and(|s| {
                s.heard[shard_of_key(key, s.heard.len() as u32) as usize].len() < s.quorum
            })
    }

    /// Re-broadcasts the remembered inquiry: in full for the sharded
    /// fallback, otherwise as a retransmission, marked for the runtime.
    fn refire<V>(&self, full: bool, out: &mut Vec<SpaceEffect<W, V>>) {
        if let Some(inner) = self.inquiry.clone() {
            out.push(SpaceEffect::Broadcast {
                msg: (self.wire)(inner, full),
            });
            out.extend((!full).then_some(SpaceEffect::Retransmit));
        }
    }

    /// Arms the beat once a join inquired without arming a wait of its
    /// own (a timer-less quorum protocol): every period when sharded, the
    /// backed-off silence window otherwise. Arming snapshots the reply
    /// count, so the next beat can tell silence from progress.
    fn arm_beat<V>(
        &mut self,
        replies: impl Fn() -> Option<usize>,
        out: &mut Vec<SpaceEffect<W, V>>,
    ) {
        if self.beat_armed || self.inquiry.is_none() || !self.waits.is_empty() {
            return;
        }
        let delay = match (&self.shards, self.retransmit) {
            (Some(s), _) => s.every,
            (None, Some(cfg)) => {
                self.seen = replies().unwrap_or(0);
                cfg.backoff(self.attempts)
            }
            (None, None) => return,
        };
        self.beat_armed = true;
        out.push(SpaceEffect::SetTimer {
            delay,
            tag: RETRANSMIT_TAG,
        });
    }

    /// The beat fired: re-fire in full when sharded (a starved shard falls
    /// back to the legacy transfer instead of wedging); otherwise re-fire
    /// only after silence, backing the window off — progress resets it.
    /// Either way the beat re-arms.
    fn beat<V>(&mut self, replies: impl Fn() -> Option<usize>, out: &mut Vec<SpaceEffect<W, V>>) {
        self.beat_armed = false;
        match (&self.shards, self.retransmit) {
            (Some(_), _) => self.refire(true, out),
            (None, Some(cfg)) if replies().unwrap_or(0) <= self.seen => {
                self.refire(false, out);
                self.attempts = (self.attempts + 1).min(cfg.budget);
            }
            (None, Some(_)) => self.attempts = 0,
            (None, None) => {}
        }
        self.arm_beat(replies, out);
    }

    /// Offers a timer expiry to the handshake before the protocol sees
    /// it; `Some` means the handshake consumed it. The beat is always
    /// consumed — never forwarded, since timer-less protocols panic on
    /// unknown tags — and emits nothing once the join is done (`hs` gone).
    /// Unsharded, a join wait expiring with zero replies and retransmit
    /// budget left is consumed too: the inquiry re-fires and the same
    /// wait re-arms instead of dispatching the expiry (which would
    /// blind-activate at ⊥).
    fn fire<V>(
        hs: Option<&mut Self>,
        tag: u64,
        replies: impl Fn() -> Option<usize>,
    ) -> Option<Vec<SpaceEffect<W, V>>> {
        let mut out = Vec::new();
        if tag == RETRANSMIT_TAG {
            if let Some(hs) = hs {
                hs.beat(replies, &mut out);
            }
            return Some(out);
        }
        let hs = hs?;
        let cfg = hs.retransmit.filter(|_| hs.shards.is_none())?;
        let delay = hs.wait(tag)?;
        if hs.inquiry.is_none() || hs.used >= cfg.budget || replies() != Some(0) {
            return None;
        }
        hs.used += 1;
        hs.refire(false, &mut out);
        out.push(SpaceEffect::SetTimer { delay, tag });
        Some(out)
    }

    /// Sharded: a shared wait expired while keys of short shards were
    /// held back. Re-fire the inquiry in full (unless the step broadcast
    /// one itself) and re-arm the same wait, so the next expiry re-checks
    /// the quorums.
    fn refire_withheld<V>(&self, tag: u64, ctx: &mut StepCtx<M, V>) {
        if ctx.join_broadcast.is_none() {
            ctx.join_broadcast = self.inquiry.clone().map(|inner| (inner, true));
        }
        if let Some(delay) = self.wait(tag) {
            let wait = (delay, tag & !SHARED_TAG);
            if !ctx.join_timers.contains(&wait) {
                ctx.join_timers.push(wait);
            }
        }
    }
}

/// Total join replies gathered by still-joining instances, if any
/// instance reports a count ([`RegisterProcess::join_replies`]).
fn joining_replies<P: RegisterProcess>(regs: &[P]) -> Option<usize> {
    regs.iter()
        .filter(|r| !r.is_active())
        .filter_map(|r| r.join_replies())
        .reduce(|a, b| a + b)
}

/// Adapts one [`RegisterProcess`] to the space trait with no wire overhead:
/// `Msg = P::Msg` (no key tags), every effect attributed to
/// [`RegisterId::ZERO`]. Byte-identical behaviour to driving `P` directly —
/// this *is* the pre-redesign single-register path, and the 1-key
/// equivalence property tests pit [`RegisterSpace`] against it.
#[derive(Debug)]
pub struct SoloSpace<P: RegisterProcess> {
    inner: P,
    /// Reused scratch so the delivery fast path stays allocation-free.
    scratch: Vec<Effect<P::Msg, P::Val>>,
    /// The join handshake of a joiner with a retransmit policy (`None`
    /// without one — the pre-retransmit path, bit for bit — and once the
    /// join is done).
    join: Option<Box<JoinHandshake<P::Msg, P::Msg>>>,
}

impl<P: RegisterProcess> SoloSpace<P> {
    /// Wraps a protocol instance.
    pub fn new(inner: P) -> SoloSpace<P> {
        SoloSpace {
            inner,
            scratch: Vec::new(),
            join: None,
        }
    }

    /// Installs (or clears) the bounded join-retransmit policy.
    pub fn with_retransmit(mut self, config: Option<RetransmitConfig>) -> SoloSpace<P> {
        self.join = config
            .filter(|_| !self.inner.is_active())
            .map(|cfg| Box::new(JoinHandshake::new(|inner, _| inner, Some(cfg))));
        self
    }

    /// The wrapped instance.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn lift(
        effects: impl IntoIterator<Item = Effect<P::Msg, P::Val>>,
    ) -> Vec<SpaceEffect<P::Msg, P::Val>> {
        effects.into_iter().map(lift_effect).collect()
    }

    /// Drops the handshake once the inner protocol is active.
    fn settle(&mut self) {
        if self.inner.is_active() {
            self.join = None;
        }
    }

    /// Feeds a join step's lifted effects (inquiry payload and armed
    /// waits) to the handshake and appends its beat when a timer-less
    /// join inquired.
    fn observe_join_step(&mut self, out: &mut Vec<SpaceEffect<P::Msg, P::Val>>) {
        self.settle();
        let Some(hs) = self.join.as_deref_mut() else {
            return;
        };
        for effect in out.iter() {
            match effect {
                SpaceEffect::Broadcast { msg } => hs.inquired(msg),
                SpaceEffect::SetTimer { delay, tag } => hs.armed(*tag, *delay),
                _ => {}
            }
        }
        hs.arm_beat(|| self.inner.join_replies(), out);
    }
}

/// Attributes a single-register effect to the anchor key.
fn lift_effect<M, V>(e: Effect<M, V>) -> SpaceEffect<M, V> {
    match e {
        Effect::Send { to, msg } => SpaceEffect::Send { to, msg },
        Effect::Broadcast { msg } => SpaceEffect::Broadcast { msg },
        Effect::SetTimer { delay, tag } => SpaceEffect::SetTimer { delay, tag },
        Effect::JoinComplete => SpaceEffect::JoinComplete,
        Effect::OpComplete { op, outcome } => SpaceEffect::OpComplete {
            key: RegisterId::ZERO,
            op,
            outcome,
        },
        Effect::Note(text) => SpaceEffect::Note {
            key: RegisterId::ZERO,
            text,
        },
    }
}

impl<P: RegisterProcess> RegisterSpaceProcess for SoloSpace<P> {
    type Msg = P::Msg;
    type Val = P::Val;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn is_active(&self) -> bool {
        self.inner.is_active()
    }

    fn key_count(&self) -> u32 {
        1
    }

    fn on_enter(&mut self, now: Time) -> Vec<SpaceEffect<P::Msg, P::Val>> {
        let mut out = Self::lift(self.inner.on_enter(now));
        self.observe_join_step(&mut out);
        out
    }

    fn on_message_into(
        &mut self,
        now: Time,
        from: NodeId,
        msg: P::Msg,
        out: &mut Vec<SpaceEffect<P::Msg, P::Val>>,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        debug_assert!(scratch.is_empty());
        self.inner.on_message_into(now, from, msg, &mut scratch);
        out.extend(scratch.drain(..).map(lift_effect));
        self.scratch = scratch;
    }

    fn on_timer(&mut self, now: Time, tag: u64) -> Vec<SpaceEffect<P::Msg, P::Val>> {
        self.settle();
        let replies = || self.inner.join_replies();
        if let Some(out) = JoinHandshake::fire(self.join.as_deref_mut(), tag, replies) {
            return out;
        }
        let mut out = Self::lift(self.inner.on_timer(now, tag));
        self.observe_join_step(&mut out);
        out
    }

    fn on_read(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
    ) -> Vec<SpaceEffect<P::Msg, P::Val>> {
        debug_assert_eq!(key, RegisterId::ZERO, "a solo space has one key");
        Self::lift(self.inner.on_read(now, op))
    }

    fn on_write(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
        value: P::Val,
    ) -> Vec<SpaceEffect<P::Msg, P::Val>> {
        debug_assert_eq!(key, RegisterId::ZERO, "a solo space has one key");
        Self::lift(self.inner.on_write(now, op, value))
    }
}

/// Timer-tag partitioning: regular tags carry their key in the upper half
/// (`key << 32 | tag`), shared join-phase timers live in a reserved
/// partition marked by the top bit.
const SHARED_TAG: u64 = 1 << 63;
const KEY_TAG_SHIFT: u32 = 32;
const INNER_TAG_MASK: u64 = (1 << KEY_TAG_SHIFT) - 1;
/// The join handshake's own beat, the space layer's one reserved timer:
/// the silence beat of the unsharded retransmit policy, or the full
/// re-inquiry beat of a sharded timer-less join. Inner tags fit 32 bits,
/// so bit 61 cannot collide with a forwarded shared tag.
pub const RETRANSMIT_TAG: u64 = SHARED_TAG | (1 << 61);

/// Bounded join-handshake retransmission policy (see the module's
/// "Join handshake lifecycle"). Attached to a space via
/// [`SoloSpace::with_retransmit`] / [`RegisterSpace::with_retransmit`];
/// absent (the default of every raw constructor), the space behaves
/// exactly as before — lossless paths are bit-identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// The initial silence window: how long a joiner's inquiry may go
    /// unanswered before the handshake re-fires (`2δ` in the scenario
    /// harness — the paper's post-inquiry wait).
    pub base: Span,
    /// Retry cap: timer-driven joins intercept at most this many
    /// zero-reply expiries; timer-less joins stop doubling their silence
    /// window after this many consecutive silent beats (the window then
    /// plateaus at `base << budget`, so liveness after the loss stops is
    /// still guaranteed).
    pub budget: u32,
}

impl RetransmitConfig {
    /// A policy re-firing after `base` ticks of silence, budget 4.
    ///
    /// # Panics
    /// Panics if `base` is zero.
    pub fn after(base: Span) -> RetransmitConfig {
        assert!(
            !base.is_zero(),
            "retransmit silence window must be positive"
        );
        RetransmitConfig { base, budget: 4 }
    }

    /// Sets the retry budget (interception cap / backoff plateau).
    ///
    /// # Panics
    /// Panics if `budget` is zero.
    pub fn with_budget(mut self, budget: u32) -> RetransmitConfig {
        assert!(budget > 0, "retransmit budget must be positive");
        self.budget = budget;
        self
    }

    /// The silence window after `attempts` consecutive silent beats:
    /// `base << min(attempts, budget, 16)`, saturating at the largest
    /// span instead of dropping high bits.
    fn backoff(&self, attempts: u32) -> Span {
        let shift = attempts.min(self.budget).min(16);
        Span::ticks(self.base.as_ticks().saturating_mul(1 << shift))
    }
}

/// Deterministic shard of a responder: SplitMix64 finalizer over the node
/// id, reduced mod `groups`. Stable across runs and thread counts.
pub fn shard_of_node(node: NodeId, groups: u32) -> u32 {
    let mut x = node.as_raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % u64::from(groups.max(1))) as u32
}

/// Deterministic shard of a key: dense keys stripe round-robin over the
/// groups, so every shard owns `⌈K/G⌉` or `⌊K/G⌋` keys.
pub fn shard_of_key(key: RegisterId, groups: u32) -> u32 {
    key.as_raw() % groups.max(1)
}

/// How join replies are sharded across responders (see the module docs).
///
/// `ShardConfig::new(1)` (`G = 1`) is the full-state reply handshake —
/// the default of every constructor, wire- and digest-identical to the
/// pre-sharding code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shard groups `G`. `1` = legacy full replies. Clamped to
    /// the key count when a space is assembled (a shard with no keys
    /// answers nothing and gates nothing).
    pub groups: u32,
    /// Distinct responders whose replies must cover a shard before the
    /// shared join timer may activate that shard's keys (sync-style
    /// timer-driven joins; quorum protocols gate on their own
    /// `join_quorum` instead).
    pub quorum: usize,
    /// Re-inquiry period for protocols that set no join timers (ES): while
    /// the shared join is incomplete the space re-broadcasts a full
    /// inquiry at this interval.
    pub reinquire_every: Span,
}

impl ShardConfig {
    /// Sharded replies over `groups` groups, per-shard quorum 1, re-inquiry
    /// every 8 ticks.
    ///
    /// # Panics
    /// Panics if `groups` is zero.
    pub fn new(groups: u32) -> ShardConfig {
        assert!(groups > 0, "shard groups must be positive");
        ShardConfig {
            groups,
            quorum: 1,
            reinquire_every: Span::ticks(8),
        }
    }

    /// Sets the per-shard responder quorum.
    ///
    /// # Panics
    /// Panics if `quorum` is zero.
    pub fn with_quorum(mut self, quorum: usize) -> ShardConfig {
        assert!(quorum > 0, "a shard quorum must be positive");
        self.quorum = quorum;
        self
    }

    /// Sets the re-inquiry period for timer-less (quorum) protocols.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn with_reinquire_every(mut self, period: Span) -> ShardConfig {
        assert!(!period.is_zero(), "re-inquiry period must be positive");
        self.reinquire_every = period;
        self
    }
}

/// A per-node multiplexer owning one [`RegisterProcess`] instance per key
/// behind a single shared join handshake. See the module docs for the
/// coalescing rules and their contract.
#[derive(Debug)]
pub struct RegisterSpace<P: RegisterProcess> {
    id: NodeId,
    regs: Vec<P>,
    /// Reused scratch for the instances' effect lists.
    scratch: Vec<Effect<P::Msg, P::Val>>,
    /// Join-reply sharding (`groups == 1` = legacy full replies).
    shard: ShardConfig,
    /// This process's responder shard (`shard_of_node(id, groups)`).
    my_shard: u32,
    /// The shared join handshake while the join is in flight; `None` on
    /// bootstrap members and once this space emitted its single
    /// `JoinComplete`.
    join: Option<Box<SpaceHandshake<P::Msg>>>,
}

/// The register space's handshake: inquiries go out as `JoinAll`.
type SpaceHandshake<M> = JoinHandshake<M, SpaceMsg<M>>;

/// One target's pending fan-in replies: `(target, per-key payloads)`.
type FanGroup<M> = (NodeId, Vec<(RegisterId, M)>);

/// Per-call routing context: collects the joins' coalescable effects
/// (shared broadcast, shared timers) and — during multi-instance fan-in —
/// the per-target reply batches, flushed in deterministic order at the end
/// of the space-level step.
struct StepCtx<M, V> {
    out: Vec<SpaceEffect<SpaceMsg<M>, V>>,
    /// First join-phase broadcast payload of this step, if any, with its
    /// `full` flag (false for a fresh sharded inquiry, true for
    /// re-inquiries — the starvation fallback).
    join_broadcast: Option<(M, bool)>,
    /// Distinct `(delay, tag)` join-phase timer requests of this step.
    join_timers: Vec<(Span, u64)>,
    /// Per-target send groups (fan-in batching); insertion-ordered.
    fan_sends: Option<Vec<FanGroup<M>>>,
    /// Emit single-entry fan-in groups as `Batch` anyway (sharded joins:
    /// the joiner counts per-shard quorums by batch content, so join
    /// replies must be identifiable on the wire even when a shard owns
    /// one key). Never set when `groups == 1`.
    force_batch: bool,
}

impl<M, V> StepCtx<M, V> {
    fn new(batch_fan_in: bool, force_batch: bool) -> StepCtx<M, V> {
        StepCtx {
            out: Vec::new(),
            join_broadcast: None,
            join_timers: Vec::new(),
            fan_sends: batch_fan_in.then(Vec::new),
            force_batch: batch_fan_in && force_batch,
        }
    }
}

impl<P: RegisterProcess> RegisterSpace<P> {
    /// A space whose instances are already active (bootstrap members).
    ///
    /// # Panics
    /// Panics if `regs` is empty, the instances disagree on identity, or
    /// any instance is not active.
    pub fn new_bootstrap(regs: Vec<P>) -> RegisterSpace<P> {
        // Bootstrap spaces run no handshake: steady-state routing from the
        // first effect (the runtime may never call `on_enter` on them).
        let space = RegisterSpace::assemble(regs, None);
        assert!(
            space.regs.iter().all(|r| r.is_active()),
            "bootstrap instances must be active"
        );
        space
    }

    /// A space about to enter the system: every instance runs its join
    /// through the shared handshake.
    ///
    /// # Panics
    /// Panics if `regs` is empty or the instances disagree on identity.
    pub fn new_joiner(regs: Vec<P>) -> RegisterSpace<P> {
        let join_all = |inner, full| SpaceMsg::JoinAll { inner, full };
        RegisterSpace::assemble(regs, Some(Box::new(JoinHandshake::new(join_all, None))))
    }

    fn assemble(regs: Vec<P>, join: Option<Box<SpaceHandshake<P::Msg>>>) -> RegisterSpace<P> {
        assert!(!regs.is_empty(), "a register space needs at least one key");
        let id = regs[0].id();
        assert!(
            regs.iter().all(|r| r.id() == id),
            "all instances of a space belong to one process"
        );
        RegisterSpace {
            id,
            regs,
            scratch: Vec::new(),
            shard: ShardConfig::new(1),
            my_shard: 0,
            join,
        }
    }

    /// Installs a join-reply shard configuration. `groups` is clamped to
    /// the key count (a shard owning no keys answers nothing and gates
    /// nothing); a clamped-to-1 (or explicit `G = 1`) config leaves the
    /// space on the legacy full-reply path.
    pub fn with_shards(mut self, config: ShardConfig) -> RegisterSpace<P> {
        let groups = config.groups.min(self.regs.len() as u32).max(1);
        self.shard = ShardConfig { groups, ..config };
        self.my_shard = shard_of_node(self.id, groups);
        if let Some(hs) = self.join.as_deref_mut() {
            hs.set_shards(self.shard);
        }
        self
    }

    /// Installs (or clears) the bounded join-retransmit policy. Only an
    /// unsharded (`G = 1`) handshake uses it; see [`RetransmitConfig`].
    pub fn with_retransmit(mut self, config: Option<RetransmitConfig>) -> RegisterSpace<P> {
        if let Some(hs) = self.join.as_deref_mut() {
            hs.retransmit = config;
        }
        self
    }

    /// The effective shard configuration (groups clamped to the key count).
    pub fn shard_config(&self) -> ShardConfig {
        self.shard
    }

    /// This process's responder shard.
    pub fn responder_shard(&self) -> u32 {
        self.my_shard
    }

    /// The instance backing `key`.
    pub fn register(&self, key: RegisterId) -> &P {
        &self.regs[key.as_raw() as usize]
    }

    /// Routes one instance's raw effects into the step context.
    fn route(
        &mut self,
        key: RegisterId,
        ctx: &mut StepCtx<P::Msg, P::Val>,
        effects: &mut Vec<Effect<P::Msg, P::Val>>,
    ) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => match &mut ctx.fan_sends {
                    Some(groups) => match groups.iter_mut().find(|(t, _)| *t == to) {
                        Some((_, entries)) => entries.push((key, msg)),
                        None => groups.push((to, vec![(key, msg)])),
                    },
                    None => ctx.out.push(SpaceEffect::Send {
                        to,
                        msg: SpaceMsg::Keyed { key, inner: msg },
                    }),
                },
                Effect::Broadcast { msg } => {
                    if self.join.is_none() {
                        ctx.out.push(SpaceEffect::Broadcast {
                            msg: SpaceMsg::Keyed { key, inner: msg },
                        });
                    } else if ctx.join_broadcast.is_none() {
                        // Shared handshake: one inquiry covers every key
                        // (join-phase broadcasts are key-agnostic; module
                        // docs, contract 1); the first sharded inquiry asks
                        // each responder only for its shard.
                        ctx.join_broadcast = Some((msg, false));
                    }
                }
                Effect::SetTimer { delay, tag } => {
                    debug_assert!(tag <= INNER_TAG_MASK, "inner timer tags must fit 32 bits");
                    if self.join.is_none() {
                        ctx.out.push(SpaceEffect::SetTimer {
                            delay,
                            tag: (u64::from(key.as_raw()) << KEY_TAG_SHIFT) | tag,
                        });
                    } else if !ctx.join_timers.contains(&(delay, tag)) {
                        // Shared handshake: still-joining instances request
                        // uniform waits (contract 2) — arm each once.
                        ctx.join_timers.push((delay, tag));
                    }
                }
                Effect::JoinComplete => {
                    if self.join.is_some() && self.regs.iter().all(|r| r.is_active()) {
                        self.join = None;
                        ctx.out.push(SpaceEffect::JoinComplete);
                    }
                }
                Effect::OpComplete { op, outcome } => {
                    ctx.out.push(SpaceEffect::OpComplete { key, op, outcome });
                }
                Effect::Note(text) => ctx.out.push(SpaceEffect::Note { key, text }),
            }
        }
    }

    /// Flushes the step context into the final effect list: direct effects
    /// first (their order is the instances' own), then the coalesced join
    /// broadcast, shared timers, the handshake's beat, and batched fan-in
    /// replies. A joining space feeds the inquiry and armed waits to its
    /// handshake on the way.
    fn flush(
        &mut self,
        mut ctx: StepCtx<P::Msg, P::Val>,
    ) -> Vec<SpaceEffect<SpaceMsg<P::Msg>, P::Val>> {
        let mut out = ctx.out;
        if let Some((inner, full)) = ctx.join_broadcast.take() {
            if let Some(hs) = self.join.as_deref_mut() {
                hs.inquired(&inner);
            }
            out.push(SpaceEffect::Broadcast {
                msg: SpaceMsg::JoinAll { inner, full },
            });
        }
        for (delay, tag) in ctx.join_timers.drain(..) {
            let tag = SHARED_TAG | tag;
            if let Some(hs) = self.join.as_deref_mut() {
                hs.armed(tag, delay);
            }
            out.push(SpaceEffect::SetTimer { delay, tag });
        }
        if let Some(hs) = self.join.as_deref_mut() {
            hs.arm_beat(|| joining_replies(&self.regs), &mut out);
        }
        if let Some(groups) = ctx.fan_sends.take() {
            for (to, mut entries) in groups {
                debug_assert!(!entries.is_empty());
                if entries.len() == 1 && !ctx.force_batch {
                    let (key, inner) = entries.pop().expect("checked non-empty");
                    out.push(SpaceEffect::Send {
                        to,
                        msg: SpaceMsg::Keyed { key, inner },
                    });
                } else {
                    out.push(SpaceEffect::Send {
                        to,
                        msg: SpaceMsg::Batch { replies: entries },
                    });
                }
            }
        }
        out
    }

    /// Runs `step` on the instance backing `key`, routing its effects.
    fn step_one(
        &mut self,
        key: RegisterId,
        ctx: &mut StepCtx<P::Msg, P::Val>,
        step: impl FnOnce(&mut P, &mut Vec<Effect<P::Msg, P::Val>>),
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        debug_assert!(scratch.is_empty());
        step(&mut self.regs[key.as_raw() as usize], &mut scratch);
        self.route(key, ctx, &mut scratch);
        self.scratch = scratch;
    }
}

impl<P: RegisterProcess> RegisterSpaceProcess for RegisterSpace<P> {
    type Msg = SpaceMsg<P::Msg>;
    type Val = P::Val;

    fn id(&self) -> NodeId {
        self.id
    }

    fn is_active(&self) -> bool {
        self.join.is_none()
    }

    fn key_count(&self) -> u32 {
        self.regs.len() as u32
    }

    fn on_enter(&mut self, now: Time) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        if self.join.is_none() {
            // Bootstrap member: already active (mirrors the single-register
            // protocols' bootstrap `on_enter`).
            return vec![SpaceEffect::JoinComplete];
        }
        // A multi-instance step: per-target sends batch (keys > 1), so the
        // handshake costs one physical message per counterpart however
        // many keys the space owns.
        let mut ctx = StepCtx::new(self.regs.len() > 1, self.shard.groups > 1);
        for raw in 0..self.regs.len() as u32 {
            self.step_one(RegisterId::from_raw(raw), &mut ctx, |reg, scratch| {
                scratch.append(&mut reg.on_enter(now));
            });
        }
        self.flush(ctx)
    }

    fn on_message_into(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Vec<SpaceEffect<Self::Msg, Self::Val>>,
    ) {
        match msg {
            SpaceMsg::Keyed { key, inner } => {
                let mut ctx = StepCtx::new(false, false);
                self.step_one(key, &mut ctx, |reg, scratch| {
                    reg.on_message_into(now, from, inner, scratch);
                });
                out.append(&mut self.flush(ctx));
            }
            SpaceMsg::JoinAll { inner, full } => {
                // Fan the shared inquiry into every instance — or, on a
                // sharded space answering a non-full inquiry, into this
                // responder's shard only. Each key's answers to one target
                // coalesce into a single Batch (the "all keys' states in
                // one reply" half of the handshake; `K/G` of them when
                // sharded). A 1-key space batches nothing, staying
                // message-for-message identical to the solo path.
                let groups = self.shard.groups;
                let mut ctx = StepCtx::new(self.regs.len() > 1, groups > 1);
                for raw in 0..self.regs.len() as u32 {
                    if groups > 1
                        && !full
                        && shard_of_key(RegisterId::from_raw(raw), groups) != self.my_shard
                    {
                        continue;
                    }
                    let inner = inner.clone();
                    self.step_one(RegisterId::from_raw(raw), &mut ctx, |reg, scratch| {
                        reg.on_message_into(now, from, inner, scratch);
                    });
                }
                out.append(&mut self.flush(ctx));
            }
            SpaceMsg::Batch { replies } => {
                // A batch from `from` covers the shards of the keys it
                // carries (its own shard for a sharded reply, every shard
                // for a full-fallback one).
                if let Some(hs) = self.join.as_deref_mut() {
                    hs.heard(from, &replies);
                }
                let mut ctx = StepCtx::new(self.regs.len() > 1, self.shard.groups > 1);
                for (key, inner) in replies {
                    self.step_one(key, &mut ctx, |reg, scratch| {
                        reg.on_message_into(now, from, inner, scratch);
                    });
                }
                out.append(&mut self.flush(ctx));
            }
        }
    }

    fn on_timer(&mut self, now: Time, tag: u64) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        let replies = || joining_replies(&self.regs);
        if let Some(out) = JoinHandshake::fire(self.join.as_deref_mut(), tag, replies) {
            return out;
        }
        if tag & SHARED_TAG != 0 {
            // A shared join-phase timer: dispatch to every still-joining
            // instance (exactly the requesters; module docs, contract 2)
            // except those the handshake holds back for a short shard.
            // Multi-instance step → per-target sends batch, so postponed
            // replies flushed at activation stay one message per inquirer.
            let inner_tag = tag & !SHARED_TAG;
            let mut ctx = StepCtx::new(self.regs.len() > 1, self.shard.groups > 1);
            let mut withheld = false;
            for raw in 0..self.regs.len() as u32 {
                let key = RegisterId::from_raw(raw);
                if self.regs[raw as usize].is_active() {
                    continue;
                }
                if self.join.as_deref().is_some_and(|hs| hs.withholds(key)) {
                    withheld = true;
                    continue;
                }
                self.step_one(key, &mut ctx, |reg, scratch| {
                    scratch.append(&mut reg.on_timer(now, inner_tag));
                });
            }
            if let Some(hs) = self.join.as_deref().filter(|_| withheld) {
                hs.refire_withheld(tag, &mut ctx);
            }
            self.flush(ctx)
        } else {
            let key = RegisterId::from_raw((tag >> KEY_TAG_SHIFT) as u32);
            let inner_tag = tag & INNER_TAG_MASK;
            let mut ctx = StepCtx::new(false, false);
            self.step_one(key, &mut ctx, |reg, scratch| {
                scratch.append(&mut reg.on_timer(now, inner_tag));
            });
            self.flush(ctx)
        }
    }

    fn on_read(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        let mut ctx = StepCtx::new(false, false);
        self.step_one(key, &mut ctx, |reg, scratch| {
            scratch.append(&mut reg.on_read(now, op));
        });
        self.flush(ctx)
    }

    fn on_write(
        &mut self,
        now: Time,
        key: RegisterId,
        op: OpId,
        value: Self::Val,
    ) -> Vec<SpaceEffect<Self::Msg, Self::Val>> {
        let mut ctx = StepCtx::new(false, false);
        self.step_one(key, &mut ctx, |reg, scratch| {
            scratch.append(&mut reg.on_write(now, op, value));
        });
        self.flush(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::es::{EsConfig, EsMsg, EsRegister, Timestamp};
    use crate::sync::{SyncConfig, SyncMsg, SyncRegister};

    fn nid(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    fn oid(i: u64) -> OpId {
        OpId::from_raw(i)
    }

    fn key(k: u32) -> RegisterId {
        RegisterId::from_raw(k)
    }

    fn cfg() -> SyncConfig {
        SyncConfig::new(Span::ticks(3))
    }

    fn bootstrap_space(id: u64, keys: u32) -> RegisterSpace<SyncRegister<u64>> {
        RegisterSpace::new_bootstrap(
            (0..keys)
                .map(|k| SyncRegister::new_bootstrap(nid(id), cfg(), u64::from(100 + k)))
                .collect(),
        )
    }

    fn joiner_space(id: u64, keys: u32) -> RegisterSpace<SyncRegister<u64>> {
        RegisterSpace::new_joiner(
            (0..keys)
                .map(|_| SyncRegister::new_joiner(nid(id), cfg(), oid(900 + id)))
                .collect(),
        )
    }

    #[test]
    fn bootstrap_space_is_active_and_reads_per_key() {
        let mut s = bootstrap_space(0, 4);
        assert!(s.is_active());
        assert_eq!(s.key_count(), 4);
        let effects = s.on_read(Time::ZERO, key(2), oid(1));
        assert_eq!(
            effects,
            vec![SpaceEffect::OpComplete {
                key: key(2),
                op: oid(1),
                outcome: OpOutcome::Read(Some(102)),
            }]
        );
    }

    #[test]
    fn bootstrap_enter_emits_one_join_complete() {
        let mut s = bootstrap_space(0, 3);
        let effects = s.on_enter(Time::ZERO);
        assert_eq!(effects, vec![SpaceEffect::JoinComplete]);
    }

    #[test]
    fn write_is_tagged_with_its_key() {
        let mut s = bootstrap_space(0, 4);
        let effects = s.on_write(Time::ZERO, key(3), oid(1), 7);
        assert!(matches!(
            &effects[0],
            SpaceEffect::Broadcast {
                msg: SpaceMsg::Keyed { key: k, inner: SyncMsg::Write { value: 7, .. } }
            } if *k == key(3)
        ));
        // The write's wait(δ) timer is key-partitioned.
        let SpaceEffect::SetTimer { tag, .. } = effects[1] else {
            panic!("expected timer, got {:?}", effects[1]);
        };
        assert_eq!(tag >> KEY_TAG_SHIFT, 3);
        // Expiry routes back to key 3 only: the write completes there.
        let done = s.on_timer(Time::at(3), tag);
        assert!(matches!(
            done.as_slice(),
            [SpaceEffect::OpComplete { key: k, op, outcome: OpOutcome::WriteOk }]
                if *k == key(3) && *op == oid(1)
        ));
    }

    #[test]
    fn joiner_shares_one_handshake() {
        let mut s = joiner_space(9, 8);
        // Enter: all 8 instances wait δ — one shared timer.
        let enter = s.on_enter(Time::ZERO);
        assert_eq!(enter.len(), 1);
        let SpaceEffect::SetTimer { tag, delay } = enter[0] else {
            panic!("expected shared timer, got {:?}", enter[0]);
        };
        assert_ne!(
            tag & SHARED_TAG,
            0,
            "join timers live in the shared partition"
        );
        assert_eq!(delay, Span::ticks(3));
        // Expiry: all 8 inquire — one JoinAll broadcast, one shared 2δ wait.
        let inquire = s.on_timer(Time::at(3), tag);
        assert_eq!(
            inquire.len(),
            2,
            "one broadcast + one shared timer: {inquire:?}"
        );
        assert!(matches!(
            inquire[0],
            SpaceEffect::Broadcast {
                msg: SpaceMsg::JoinAll {
                    inner: SyncMsg::Inquiry,
                    full: false
                }
            }
        ));
        let SpaceEffect::SetTimer { tag: t2, .. } = inquire[1] else {
            panic!("expected shared inquiry timer");
        };
        // No replies arrive; expiry activates every key and completes the
        // space join exactly once.
        let done = s.on_timer(Time::at(9), t2);
        assert_eq!(done, vec![SpaceEffect::JoinComplete]);
        assert!(s.is_active());
    }

    #[test]
    fn join_all_fans_in_and_batches_the_replies() {
        let mut responder = bootstrap_space(0, 5);
        let effects = responder.on_message(
            Time::at(1),
            nid(9),
            SpaceMsg::JoinAll {
                inner: SyncMsg::Inquiry,
                full: false,
            },
        );
        // Five per-key replies to one joiner → one physical Batch.
        assert_eq!(effects.len(), 1);
        let SpaceEffect::Send {
            to,
            msg: SpaceMsg::Batch { replies },
        } = &effects[0]
        else {
            panic!("expected one batched reply, got {effects:?}");
        };
        assert_eq!(*to, nid(9));
        assert_eq!(replies.len(), 5);
        assert!(replies
            .iter()
            .enumerate()
            .all(|(i, (k, _))| *k == key(i as u32)));
    }

    #[test]
    fn batch_delivery_routes_each_entry_to_its_key() {
        let mut s = joiner_space(9, 2);
        let enter = s.on_enter(Time::ZERO);
        let SpaceEffect::SetTimer { tag, .. } = enter[0] else {
            panic!()
        };
        let inquire = s.on_timer(Time::at(3), tag);
        let SpaceEffect::SetTimer { tag: t2, .. } = inquire[1] else {
            panic!()
        };
        // A responder's batch carries distinct values per key.
        s.on_message_into(
            Time::at(5),
            nid(0),
            SpaceMsg::Batch {
                replies: vec![
                    (
                        key(0),
                        SyncMsg::Reply {
                            value: Some(100),
                            sn: 0,
                        },
                    ),
                    (
                        key(1),
                        SyncMsg::Reply {
                            value: Some(101),
                            sn: 0,
                        },
                    ),
                ],
            },
            &mut Vec::new(),
        );
        let done = s.on_timer(Time::at(9), t2);
        assert_eq!(done, vec![SpaceEffect::JoinComplete]);
        assert_eq!(s.register(key(0)).local_value(), Some(&100));
        assert_eq!(s.register(key(1)).local_value(), Some(&101));
    }

    #[test]
    fn one_key_space_batches_nothing() {
        let mut responder = bootstrap_space(0, 1);
        let effects = responder.on_message(
            Time::at(1),
            nid(9),
            SpaceMsg::JoinAll {
                inner: SyncMsg::Inquiry,
                full: false,
            },
        );
        // A single reply stays a Keyed unicast — message-for-message
        // identical to the solo path.
        assert!(matches!(
            effects.as_slice(),
            [SpaceEffect::Send {
                msg: SpaceMsg::Keyed { .. },
                ..
            }]
        ));
    }

    #[test]
    fn keyed_write_reaches_only_its_instance() {
        let mut s = bootstrap_space(0, 3);
        s.on_message_into(
            Time::at(1),
            nid(1),
            SpaceMsg::Keyed {
                key: key(1),
                inner: SyncMsg::Write { value: 7, sn: 5 },
            },
            &mut Vec::new(),
        );
        assert_eq!(s.register(key(0)).local_value(), Some(&100));
        assert_eq!(s.register(key(1)).local_value(), Some(&7));
        assert_eq!(s.register(key(2)).local_value(), Some(&102));
    }

    #[test]
    fn write_during_wait_still_gets_other_keys_via_the_shared_inquiry() {
        // Key 0 adopts a WRITE during the initial δ wait, key 1 does not:
        // the shared handshake still inquires (for key 1) and the space
        // completes only when both keys are active.
        let mut s = joiner_space(9, 2);
        let enter = s.on_enter(Time::ZERO);
        let SpaceEffect::SetTimer { tag, .. } = enter[0] else {
            panic!()
        };
        s.on_message_into(
            Time::at(1),
            nid(0),
            SpaceMsg::Keyed {
                key: key(0),
                inner: SyncMsg::Write { value: 55, sn: 1 },
            },
            &mut Vec::new(),
        );
        let after_wait = s.on_timer(Time::at(3), tag);
        // Key 0 became active (no broadcast from it); key 1 inquires.
        assert!(
            after_wait.iter().any(|e| matches!(
                e,
                SpaceEffect::Broadcast {
                    msg: SpaceMsg::JoinAll { .. }
                }
            )),
            "key 1 still inquires: {after_wait:?}"
        );
        assert!(
            !after_wait.contains(&SpaceEffect::JoinComplete),
            "space join incomplete while key 1 is joining"
        );
        let SpaceEffect::SetTimer { tag: t2, .. } = *after_wait
            .iter()
            .find(|e| matches!(e, SpaceEffect::SetTimer { .. }))
            .expect("shared inquiry timer")
        else {
            unreachable!()
        };
        let done = s.on_timer(Time::at(9), t2);
        assert_eq!(done, vec![SpaceEffect::JoinComplete]);
        assert_eq!(s.register(key(0)).local_value(), Some(&55));
    }

    #[test]
    fn solo_space_is_a_transparent_adapter() {
        let mut solo = SoloSpace::new(SyncRegister::<u64>::new_bootstrap(nid(0), cfg(), 5));
        assert!(solo.is_active());
        assert_eq!(solo.key_count(), 1);
        let effects = solo.on_read(Time::ZERO, RegisterId::ZERO, oid(1));
        assert_eq!(
            effects,
            vec![SpaceEffect::OpComplete {
                key: RegisterId::ZERO,
                op: oid(1),
                outcome: OpOutcome::Read(Some(5)),
            }]
        );
        // Raw protocol messages, no key tags.
        let mut out = Vec::new();
        solo.on_message_into(Time::at(1), nid(7), SyncMsg::Inquiry, &mut out);
        assert!(matches!(
            out.as_slice(),
            [SpaceEffect::Send { to, msg: SyncMsg::Reply { .. } }] if *to == nid(7)
        ));
    }

    fn sharded_bootstrap(id: u64, keys: u32, groups: u32) -> RegisterSpace<SyncRegister<u64>> {
        bootstrap_space(id, keys).with_shards(ShardConfig::new(groups))
    }

    fn sharded_joiner(id: u64, keys: u32, groups: u32) -> RegisterSpace<SyncRegister<u64>> {
        joiner_space(id, keys).with_shards(ShardConfig::new(groups))
    }

    /// A batched reply from `from` covering the keys of its shard.
    fn shard_batch(from: u64, keys: u32, groups: u32, value: u64) -> SpaceMsg<SyncMsg<u64>> {
        SpaceMsg::Batch {
            replies: (0..keys)
                .filter(|&k| shard_of_key(key(k), groups) == shard_of_node(nid(from), groups))
                .map(|k| {
                    (
                        key(k),
                        SyncMsg::Reply {
                            value: Some(value),
                            sn: 1,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn shard_groups_clamp_to_the_key_count() {
        let s = sharded_bootstrap(0, 4, 64);
        assert_eq!(s.shard_config().groups, 4);
        let s1 = sharded_bootstrap(0, 1, 8);
        assert_eq!(s1.shard_config().groups, 1, "a 1-key space cannot shard");
    }

    #[test]
    fn sharded_responder_answers_only_its_shard() {
        let groups = 2;
        let keys = 6;
        let mut responder = sharded_bootstrap(0, keys, groups);
        let mine = responder.responder_shard();
        let effects = responder.on_message(
            Time::at(1),
            nid(9),
            SpaceMsg::JoinAll {
                inner: SyncMsg::Inquiry,
                full: false,
            },
        );
        let [SpaceEffect::Send {
            to,
            msg: SpaceMsg::Batch { replies },
        }] = effects.as_slice()
        else {
            panic!("expected one forced batch, got {effects:?}");
        };
        assert_eq!(*to, nid(9));
        assert_eq!(replies.len() as u32, keys / groups);
        assert!(replies
            .iter()
            .all(|(k, _)| shard_of_key(*k, groups) == mine));
    }

    #[test]
    fn full_reinquiry_is_answered_for_every_key() {
        let mut responder = sharded_bootstrap(0, 6, 2);
        let effects = responder.on_message(
            Time::at(1),
            nid(9),
            SpaceMsg::JoinAll {
                inner: SyncMsg::Inquiry,
                full: true,
            },
        );
        let [SpaceEffect::Send {
            msg: SpaceMsg::Batch { replies },
            ..
        }] = effects.as_slice()
        else {
            panic!("expected one batch, got {effects:?}");
        };
        assert_eq!(replies.len(), 6, "the fallback is the legacy full reply");
    }

    #[test]
    fn starved_shard_withholds_activation_and_refires_the_inquiry() {
        let groups = 2;
        let keys = 4;
        let mut s = sharded_joiner(9, keys, groups);
        // δ wait → inquiry (sharded, not full) + 2δ wait.
        let enter = s.on_enter(Time::ZERO);
        let SpaceEffect::SetTimer { tag, .. } = enter[0] else {
            panic!()
        };
        let inquire = s.on_timer(Time::at(3), tag);
        assert!(matches!(
            inquire[0],
            SpaceEffect::Broadcast {
                msg: SpaceMsg::JoinAll { full: false, .. }
            }
        ));
        let SpaceEffect::SetTimer { tag: t2, delay } = inquire[1] else {
            panic!()
        };
        assert_eq!(delay, Span::ticks(6));
        // Only the responder covering shard 0 answers; find one per shard.
        let in_shard = |g: u32| {
            (0..64)
                .find(|&i| shard_of_node(nid(i), groups) == g)
                .unwrap()
        };
        let (r0, r1) = (in_shard(0), in_shard(1));
        s.on_message_into(
            Time::at(5),
            nid(r0),
            shard_batch(r0, keys, groups, 100),
            &mut Vec::new(),
        );
        // 2δ expiry: shard 0's keys activate, shard 1's are withheld; the
        // timer re-fires a *full* inquiry and re-arms itself.
        let effects = s.on_timer(Time::at(9), t2);
        assert!(
            !s.is_active(),
            "space join incomplete while shard 1 starves"
        );
        assert!(
            effects.iter().any(|e| matches!(
                e,
                SpaceEffect::Broadcast {
                    msg: SpaceMsg::JoinAll { full: true, .. }
                }
            )),
            "withheld shard re-fires a full inquiry: {effects:?}"
        );
        let rearm = effects
            .iter()
            .find_map(|e| match e {
                SpaceEffect::SetTimer { tag, delay } => Some((*tag, *delay)),
                _ => None,
            })
            .expect("re-armed shared timer");
        assert_eq!(rearm.1, Span::ticks(6), "same 2δ wait re-armed");
        assert!(
            !effects.contains(&SpaceEffect::JoinComplete),
            "no JoinComplete while a shard is short"
        );
        // Shard 1's responder answers the re-inquiry; the re-armed expiry
        // completes the join, and the adopted values are per shard.
        s.on_message_into(
            Time::at(11),
            nid(r1),
            shard_batch(r1, keys, groups, 200),
            &mut Vec::new(),
        );
        let done = s.on_timer(Time::at(15), rearm.0);
        assert!(done.contains(&SpaceEffect::JoinComplete), "{done:?}");
        assert!(s.is_active());
        for k_raw in 0..keys {
            let expect = if shard_of_key(key(k_raw), groups) == 0 {
                100
            } else {
                200
            };
            assert_eq!(s.register(key(k_raw)).local_value(), Some(&expect));
        }
    }

    #[test]
    fn shard_quorum_counts_distinct_responders() {
        let groups = 2;
        let mut s =
            sharded_joiner(9, 4, groups).with_shards(ShardConfig::new(groups).with_quorum(2));
        let enter = s.on_enter(Time::ZERO);
        let SpaceEffect::SetTimer { tag, .. } = enter[0] else {
            panic!()
        };
        let inquire = s.on_timer(Time::at(3), tag);
        let SpaceEffect::SetTimer { tag: t2, .. } = inquire[1] else {
            panic!()
        };
        // One responder per shard — quorum 2 not met anywhere, even if the
        // same responder repeats itself.
        let in_shard = |g: u32| {
            (0..64)
                .find(|&i| shard_of_node(nid(i), groups) == g)
                .unwrap()
        };
        for _ in 0..3 {
            s.on_message_into(
                Time::at(5),
                nid(in_shard(0)),
                shard_batch(in_shard(0), 4, groups, 7),
                &mut Vec::new(),
            );
        }
        let effects = s.on_timer(Time::at(9), t2);
        assert!(!s.is_active(), "one chatty responder is one vote");
        assert!(effects.iter().any(|e| matches!(
            e,
            SpaceEffect::Broadcast {
                msg: SpaceMsg::JoinAll { full: true, .. }
            }
        )));
        // A second distinct responder per shard satisfies quorum 2 — the
        // full fallback reply covers both shards at once.
        let extra = (0..64)
            .find(|&i| i != in_shard(0) && i != in_shard(1))
            .unwrap();
        s.on_message_into(
            Time::at(11),
            nid(in_shard(1)),
            shard_batch(in_shard(1), 4, groups, 8),
            &mut Vec::new(),
        );
        let full_reply = SpaceMsg::Batch {
            replies: (0..4)
                .map(|k| {
                    (
                        key(k),
                        SyncMsg::Reply {
                            value: Some(9),
                            sn: 1,
                        },
                    )
                })
                .collect(),
        };
        s.on_message_into(
            Time::at(11),
            nid(in_shard(0)),
            full_reply.clone(),
            &mut Vec::new(),
        );
        s.on_message_into(Time::at(11), nid(extra), full_reply, &mut Vec::new());
        // The withheld expiry re-armed the same shared tag; its next firing
        // finds every shard at quorum and completes the join.
        let done = s.on_timer(Time::at(15), t2);
        assert!(done.contains(&SpaceEffect::JoinComplete), "{done:?}");
    }

    #[test]
    fn one_group_sharding_is_the_legacy_handshake() {
        // G = 1 through the shard-config path produces exactly the legacy
        // effect streams: the equivalence oracle at the unit level.
        let mut legacy = bootstrap_space(0, 5);
        let mut sharded = sharded_bootstrap(0, 5, 1);
        for full in [false, true] {
            assert_eq!(
                legacy.on_message(
                    Time::at(1),
                    nid(9),
                    SpaceMsg::JoinAll {
                        inner: SyncMsg::Inquiry,
                        full
                    },
                ),
                sharded.on_message(
                    Time::at(1),
                    nid(9),
                    SpaceMsg::JoinAll {
                        inner: SyncMsg::Inquiry,
                        full
                    },
                ),
            );
        }
        let mut legacy_j = joiner_space(9, 3);
        let mut sharded_j = sharded_joiner(9, 3, 1);
        let a = legacy_j.on_enter(Time::ZERO);
        let b = sharded_j.on_enter(Time::ZERO);
        assert_eq!(a, b);
        let SpaceEffect::SetTimer { tag, .. } = a[0] else {
            panic!()
        };
        assert_eq!(
            legacy_j.on_timer(Time::at(3), tag),
            sharded_j.on_timer(Time::at(3), tag)
        );
    }

    #[test]
    fn shard_hash_is_deterministic_and_spread() {
        let groups = 16;
        let mut seen = vec![0u32; groups as usize];
        for i in 0..1000 {
            let s = shard_of_node(nid(i), groups);
            assert_eq!(s, shard_of_node(nid(i), groups));
            assert!(s < groups);
            seen[s as usize] += 1;
        }
        assert!(
            seen.iter().all(|&c| c > 20),
            "1000 nodes spread over 16 shards without starving one: {seen:?}"
        );
    }

    fn solo_sync_joiner(retransmit: Option<RetransmitConfig>) -> SoloSpace<SyncRegister<u64>> {
        SoloSpace::new(SyncRegister::new_joiner(nid(9), cfg(), oid(900)))
            .with_retransmit(retransmit)
    }

    /// Drives a solo sync joiner to its post-inquiry wait, returning the
    /// 2δ timer tag.
    fn inquire_solo_sync(s: &mut SoloSpace<SyncRegister<u64>>) -> u64 {
        let enter = s.on_enter(Time::ZERO);
        let [SpaceEffect::SetTimer { tag, .. }] = enter.as_slice() else {
            panic!("expected the δ wait, got {enter:?}");
        };
        let inquire = s.on_timer(Time::at(3), *tag);
        assert!(matches!(
            inquire[0],
            SpaceEffect::Broadcast {
                msg: SyncMsg::Inquiry
            }
        ));
        let SpaceEffect::SetTimer { tag: t2, delay } = inquire[1] else {
            panic!("expected the 2δ wait, got {inquire:?}");
        };
        assert_eq!(delay, Span::ticks(6));
        t2
    }

    #[test]
    fn solo_sync_intercepts_zero_reply_expiries_until_the_budget() {
        let rc = RetransmitConfig::after(Span::ticks(6)).with_budget(2);
        let mut s = solo_sync_joiner(Some(rc));
        let t2 = inquire_solo_sync(&mut s);
        // Two zero-reply expiries are intercepted: the inquiry re-fires and
        // the same 2δ wait is re-armed instead of dispatching the expiry.
        let mut now = 9;
        for round in 0..2 {
            let fired = s.on_timer(Time::at(now), t2);
            assert_eq!(
                fired,
                vec![
                    SpaceEffect::Broadcast {
                        msg: SyncMsg::Inquiry
                    },
                    SpaceEffect::Retransmit,
                    SpaceEffect::SetTimer {
                        delay: Span::ticks(6),
                        tag: t2,
                    },
                ],
                "interception {round}"
            );
            assert!(!s.is_active(), "still joining after interception {round}");
            now += 6;
        }
        // Budget exhausted: the next expiry dispatches normally, so the
        // paper's blind ⊥ activation is preserved — only delayed.
        let done = s.on_timer(Time::at(now), t2);
        assert!(done.contains(&SpaceEffect::JoinComplete), "{done:?}");
        assert!(s.is_active());
        assert_eq!(s.inner().local_value(), None, "blind activation is at ⊥");
    }

    #[test]
    fn solo_sync_dispatches_normally_once_a_reply_arrived() {
        let mut s = solo_sync_joiner(Some(RetransmitConfig::after(Span::ticks(6))));
        let t2 = inquire_solo_sync(&mut s);
        s.on_message_into(
            Time::at(5),
            nid(1),
            SyncMsg::Reply {
                value: Some(41),
                sn: 2,
            },
            &mut Vec::new(),
        );
        // One reply is enough to stand down: the expiry adopts and
        // activates exactly as the pre-retransmit protocol would.
        let done = s.on_timer(Time::at(9), t2);
        assert!(done.contains(&SpaceEffect::JoinComplete), "{done:?}");
        assert!(s.is_active());
        assert_eq!(s.inner().local_value(), Some(&41));
    }

    #[test]
    fn sync_retransmit_policy_is_invisible_on_a_lossless_handshake() {
        let mut plain = solo_sync_joiner(None);
        let mut with_policy = solo_sync_joiner(Some(RetransmitConfig::after(Span::ticks(6))));
        assert_eq!(plain.on_enter(Time::ZERO), with_policy.on_enter(Time::ZERO));
        let (ta, tb) = (
            inquire_solo_sync(&mut plain),
            inquire_solo_sync(&mut with_policy),
        );
        assert_eq!(ta, tb);
        for s in [&mut plain, &mut with_policy] {
            s.on_message_into(
                Time::at(5),
                nid(1),
                SyncMsg::Reply {
                    value: Some(41),
                    sn: 2,
                },
                &mut Vec::new(),
            );
        }
        // Replies landed before the wait expired: effect-for-effect
        // identical with and without the policy (the digest-equivalence
        // contract of the lossless path).
        assert_eq!(
            plain.on_timer(Time::at(9), ta),
            with_policy.on_timer(Time::at(9), tb)
        );
        assert!(plain.is_active() && with_policy.is_active());
    }

    #[test]
    fn solo_es_silence_timer_rebroadcasts_with_backoff_and_resets_on_progress() {
        // n = 3 ⇒ join quorum 2: one reply is progress but not completion.
        let ecfg = EsConfig::new(3);
        let rc = RetransmitConfig::after(Span::ticks(8)).with_budget(2);
        let mut s = SoloSpace::new(EsRegister::<u64>::new_joiner(nid(9), ecfg, oid(900)))
            .with_retransmit(Some(rc));
        // ES joins arm no timers, so the space appends its own silence
        // timer right behind the inquiry.
        assert_eq!(
            s.on_enter(Time::ZERO),
            vec![
                SpaceEffect::Broadcast {
                    msg: EsMsg::Inquiry { r_sn: 0 }
                },
                SpaceEffect::SetTimer {
                    delay: Span::ticks(8),
                    tag: RETRANSMIT_TAG,
                },
            ]
        );
        // Silent beats re-fire the inquiry and double the window (8 → 16 →
        // 32); after `budget = 2` silent beats the window plateaus at
        // `base << 2` — retries stay unbounded, backoff does not.
        for (at, next) in [(8, 16), (24, 32), (56, 32)] {
            assert_eq!(
                s.on_timer(Time::at(at), RETRANSMIT_TAG),
                vec![
                    SpaceEffect::Broadcast {
                        msg: EsMsg::Inquiry { r_sn: 0 }
                    },
                    SpaceEffect::Retransmit,
                    SpaceEffect::SetTimer {
                        delay: Span::ticks(next),
                        tag: RETRANSMIT_TAG,
                    },
                ],
                "silent beat at {at}"
            );
        }
        // One reply (below quorum) is progress: the next beat re-arms at
        // the base window without re-broadcasting.
        s.on_message_into(
            Time::at(60),
            nid(1),
            EsMsg::Reply {
                value: Some(7),
                ts: Timestamp::INITIAL,
                r_sn: 0,
            },
            &mut Vec::new(),
        );
        assert!(!s.is_active());
        assert_eq!(
            s.on_timer(Time::at(88), RETRANSMIT_TAG),
            vec![SpaceEffect::SetTimer {
                delay: Span::ticks(8),
                tag: RETRANSMIT_TAG,
            }]
        );
        // Quorum reached: the join completes, and the stale beat stands
        // down without re-arming.
        let mut out = Vec::new();
        s.on_message_into(
            Time::at(90),
            nid(2),
            EsMsg::Reply {
                value: Some(7),
                ts: Timestamp::INITIAL,
                r_sn: 0,
            },
            &mut out,
        );
        assert!(out.contains(&SpaceEffect::JoinComplete), "{out:?}");
        assert!(s.is_active());
        assert_eq!(s.on_timer(Time::at(96), RETRANSMIT_TAG), vec![]);
    }

    fn spaced_es_joiner(keys: u32) -> RegisterSpace<EsRegister<u64>> {
        let ecfg = EsConfig::new(3).with_join_quorum(2);
        RegisterSpace::new_joiner(
            (0..keys)
                .map(|_| EsRegister::<u64>::new_joiner(nid(9), ecfg, oid(900)))
                .collect(),
        )
        .with_retransmit(Some(RetransmitConfig::after(Span::ticks(8))))
    }

    #[test]
    fn spaced_one_group_es_join_retransmits_like_solo() {
        let mut s = spaced_es_joiner(2);
        // Both keys' inquiries coalesce into one JoinAll; the silence
        // timer rides right behind it — the solo sequence, spaced.
        assert_eq!(
            s.on_enter(Time::ZERO),
            vec![
                SpaceEffect::Broadcast {
                    msg: SpaceMsg::JoinAll {
                        inner: EsMsg::Inquiry { r_sn: 0 },
                        full: false,
                    }
                },
                SpaceEffect::SetTimer {
                    delay: Span::ticks(8),
                    tag: RETRANSMIT_TAG,
                },
            ]
        );
        assert_eq!(
            s.on_timer(Time::at(8), RETRANSMIT_TAG),
            vec![
                SpaceEffect::Broadcast {
                    msg: SpaceMsg::JoinAll {
                        inner: EsMsg::Inquiry { r_sn: 0 },
                        full: false,
                    }
                },
                SpaceEffect::Retransmit,
                SpaceEffect::SetTimer {
                    delay: Span::ticks(16),
                    tag: RETRANSMIT_TAG,
                },
            ]
        );
        assert!(!s.is_active());
    }

    #[test]
    fn duplicate_batch_replies_never_complete_a_join_early() {
        let mut s = spaced_es_joiner(2);
        s.on_enter(Time::ZERO);
        let batch = || SpaceMsg::Batch {
            replies: (0..2)
                .map(|k| {
                    (
                        key(k),
                        EsMsg::Reply {
                            value: Some(7),
                            ts: Timestamp::INITIAL,
                            r_sn: 0,
                        },
                    )
                })
                .collect(),
        };
        // A retransmitted inquiry often elicits duplicate replies: the
        // same responder's batch delivered twice is still one vote toward
        // join quorum 2.
        for round in 0..2 {
            let mut out = Vec::new();
            s.on_message_into(Time::at(5), nid(1), batch(), &mut out);
            assert!(
                !out.contains(&SpaceEffect::JoinComplete),
                "duplicate delivery {round} completed the join: {out:?}"
            );
        }
        assert!(!s.is_active(), "a duplicate reply is not a second vote");
        // A second *distinct* responder reaches the quorum.
        let mut out = Vec::new();
        s.on_message_into(Time::at(6), nid(2), batch(), &mut out);
        assert!(out.contains(&SpaceEffect::JoinComplete), "{out:?}");
        assert!(s.is_active());
    }

    /// A batched ES join reply from one responder, covering `keys`.
    fn es_batch(keys: &[u32]) -> SpaceMsg<EsMsg<u64>> {
        SpaceMsg::Batch {
            replies: keys
                .iter()
                .map(|&k| {
                    (
                        key(k),
                        EsMsg::Reply {
                            value: Some(7),
                            ts: Timestamp::INITIAL,
                            r_sn: 0,
                        },
                    )
                })
                .collect(),
        }
    }

    /// A 4-key ES joiner sharded over 2 groups (shard 0 owns keys 0 and 2),
    /// join quorum 1 per key, beat every 5 ticks.
    fn sharded_es_joiner(retransmit: Option<RetransmitConfig>) -> RegisterSpace<EsRegister<u64>> {
        let ecfg = EsConfig::new(3).with_join_quorum(1);
        RegisterSpace::new_joiner(
            (0..4)
                .map(|_| EsRegister::<u64>::new_joiner(nid(9), ecfg, oid(900)))
                .collect(),
        )
        .with_shards(ShardConfig::new(2).with_reinquire_every(Span::ticks(5)))
        .with_retransmit(retransmit)
    }

    fn es_join_all(full: bool) -> SpaceEffect<SpaceMsg<EsMsg<u64>>, u64> {
        SpaceEffect::Broadcast {
            msg: SpaceMsg::JoinAll {
                inner: EsMsg::Inquiry { r_sn: 0 },
                full,
            },
        }
    }

    #[test]
    fn sharded_timerless_beat_refires_full_inquiries_at_a_fixed_period() {
        let mut s = sharded_es_joiner(None);
        let beat = SpaceEffect::SetTimer {
            delay: Span::ticks(5),
            tag: RETRANSMIT_TAG,
        };
        assert_eq!(
            s.on_enter(Time::ZERO),
            vec![es_join_all(false), beat.clone()]
        );
        // Every beat re-fires a *full* inquiry and re-arms at the same
        // period: no Retransmit marker, no backoff.
        for at in [5, 10, 15] {
            assert_eq!(
                s.on_timer(Time::at(at), RETRANSMIT_TAG),
                vec![es_join_all(true), beat.clone()],
                "beat at {at}"
            );
        }
        // Progress does not change the sharded beat: shard 0 answered,
        // shard 1's keys are still joining.
        s.on_message_into(Time::at(16), nid(1), es_batch(&[0, 2]), &mut Vec::new());
        assert!(!s.is_active());
        assert_eq!(
            s.on_timer(Time::at(20), RETRANSMIT_TAG),
            vec![es_join_all(true), beat]
        );
        // Join done: the outstanding beat emits nothing and stops.
        let mut out = Vec::new();
        s.on_message_into(Time::at(21), nid(2), es_batch(&[1, 3]), &mut out);
        assert!(out.contains(&SpaceEffect::JoinComplete), "{out:?}");
        assert_eq!(s.on_timer(Time::at(25), RETRANSMIT_TAG), vec![]);
    }

    #[test]
    fn sharded_space_ignores_the_retransmit_policy() {
        let rc = Some(RetransmitConfig::after(Span::ticks(2)).with_budget(1));
        // Timer-less (ES): the same beats, one for one.
        let (mut plain, mut with) = (sharded_es_joiner(None), sharded_es_joiner(rc));
        assert_eq!(plain.on_enter(Time::ZERO), with.on_enter(Time::ZERO));
        for at in [5, 10] {
            assert_eq!(
                plain.on_timer(Time::at(at), RETRANSMIT_TAG),
                with.on_timer(Time::at(at), RETRANSMIT_TAG)
            );
        }
        for (at, keys) in [(11, [0, 2]), (12, [1, 3])] {
            assert_eq!(
                plain.on_message(Time::at(at), nid(1), es_batch(&keys)),
                with.on_message(Time::at(at), nid(1), es_batch(&keys))
            );
        }
        assert!(plain.is_active() && with.is_active());
        assert_eq!(
            plain.on_timer(Time::at(15), RETRANSMIT_TAG),
            with.on_timer(Time::at(15), RETRANSMIT_TAG)
        );
        // Timer-driven (sync): zero-reply expiries are withheld and re-fire
        // a full inquiry, never intercepted — past the budget, too.
        let mut plain = sharded_joiner(9, 4, 2);
        let mut with = sharded_joiner(9, 4, 2).with_retransmit(rc);
        let enter = plain.on_enter(Time::ZERO);
        assert_eq!(enter, with.on_enter(Time::ZERO));
        let SpaceEffect::SetTimer { tag, .. } = enter[0] else {
            panic!("expected the δ wait, got {enter:?}");
        };
        let inquire = plain.on_timer(Time::at(3), tag);
        assert_eq!(inquire, with.on_timer(Time::at(3), tag));
        let SpaceEffect::SetTimer { tag: t2, .. } = inquire[1] else {
            panic!("expected the 2δ wait, got {inquire:?}");
        };
        for at in [9, 15] {
            let fired = plain.on_timer(Time::at(at), t2);
            assert!(!fired.contains(&SpaceEffect::Retransmit), "{fired:?}");
            assert!(fired.iter().any(|e| matches!(
                e,
                SpaceEffect::Broadcast {
                    msg: SpaceMsg::JoinAll { full: true, .. }
                }
            )));
            assert_eq!(fired, with.on_timer(Time::at(at), t2), "expiry at {at}");
        }
    }

    #[test]
    fn late_beat_after_join_complete_is_swallowed_by_a_register_space() {
        // ES instances panic on unknown timer tags, so a forwarded beat
        // would abort; a swallowed one yields nothing, sharded or not.
        for groups in [1, 2] {
            let mut s = spaced_es_joiner(2).with_shards(ShardConfig::new(groups));
            assert!(s
                .on_enter(Time::ZERO)
                .iter()
                .any(|e| matches!(e, SpaceEffect::SetTimer { tag, .. } if *tag == RETRANSMIT_TAG)));
            for from in [1, 2] {
                s.on_message_into(Time::at(5), nid(from), es_batch(&[0, 1]), &mut Vec::new());
            }
            assert!(s.is_active(), "G = {groups}");
            assert_eq!(
                s.on_timer(Time::at(8), RETRANSMIT_TAG),
                vec![],
                "G = {groups}"
            );
        }
    }

    #[test]
    fn backoff_saturates_instead_of_wrapping() {
        let rc = RetransmitConfig::after(Span::ticks(1 << 60));
        assert_eq!(rc.backoff(0), Span::ticks(1 << 60));
        assert_eq!(rc.backoff(3), Span::ticks(1 << 63));
        // `base << 4` would drop every set bit — a zero-delay re-fire
        // re-arming at the same tick. The window saturates instead.
        assert_eq!(rc.backoff(4), Span::ticks(u64::MAX));
        assert_eq!(rc.backoff(9), Span::ticks(u64::MAX), "plateau at budget");
        // The same four silent beats through a joiner's effects.
        let mut s = SoloSpace::new(EsRegister::<u64>::new_joiner(
            nid(9),
            EsConfig::new(3),
            oid(900),
        ))
        .with_retransmit(Some(rc));
        s.on_enter(Time::ZERO);
        let delays: Vec<Span> = (1..=4)
            .map(|beat| {
                let fired = s.on_timer(Time::at(beat), RETRANSMIT_TAG);
                match fired.last() {
                    Some(&SpaceEffect::SetTimer { delay, .. }) => delay,
                    _ => panic!("beat {beat} did not re-arm: {fired:?}"),
                }
            })
            .collect();
        assert_eq!(
            delays,
            [1 << 61, 1 << 62, 1 << 63, u64::MAX].map(Span::ticks)
        );
    }

    #[test]
    fn payload_count_reflects_batching() {
        assert_eq!(
            SpaceMsg::Keyed {
                key: key(0),
                inner: ()
            }
            .payload_count(),
            1
        );
        assert_eq!(
            SpaceMsg::JoinAll {
                inner: (),
                full: false
            }
            .payload_count(),
            1
        );
        assert_eq!(
            SpaceMsg::<()>::Batch {
                replies: vec![(key(0), ()), (key(1), ())]
            }
            .payload_count(),
            2
        );
    }
}
