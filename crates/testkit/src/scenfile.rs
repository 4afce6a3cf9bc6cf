//! Scenario files: a hand-rolled text format for [`ScenarioSpec`].
//!
//! The workspace is air-gapped (no serde), so scenarios are stored in a
//! line-oriented plain-text format, one directive per line, in the spirit
//! of the hand-written JSON in `dynareg-fleet`'s reports: a tiny grammar,
//! written and parsed by this module alone, with a round-trip guarantee —
//! [`parse_scenario`]`(`[`write_scenario`]`(spec)) == spec` for every
//! serializable spec (anything without a [`ScriptedWorkload`] attached).
//!
//! # Format
//!
//! The first non-comment line must be the format tag `dynareg-scenario/1`.
//! Blank lines are ignored and `#` starts a comment anywhere on a line.
//! Every other line is `directive arg…`, whitespace-separated; later
//! duplicates win. Times are in ticks, `max` meaning "forever"; endpoints
//! are raw node ids, `any` meaning "unfiltered". Fault windows are
//! half-open, `[t0, t1)`, and must satisfy `t0 ≤ t1`: an inverted window
//! is a line-numbered error, `t0 == t1` an empty window.
//!
//! ```text
//! dynareg-scenario/1
//! protocol sync|sync-nowait|es|es-atomic
//! net sync|sync-worst | net es <gst> | net async <cap_factor>
//! n <count>                    # required, > 0
//! delta <ticks>                # required, > 0
//! duration <ticks>             # default 300
//! drain <ticks>                # optional (default 12δ at run time)
//! seed <u64>                   # default 0
//! churn none | constant <c> | poisson <c>
//!       | burst <on> <on_ticks> <off> <off_ticks>
//!       | diurnal <peak> <trough> <period>
//!       | sessions <alpha> <min_ticks>
//!       | flash-crowd <base> <wave_at> <wave_every> <wave_joins> <wave_ticks>
//! selector random|oldest-first|newest-first|active-first
//! write-every <ticks>          # optional (default 3δ at run time)
//! write-quiesce <ticks>        # optional
//! reads-per-tick <rate>        # default 1
//! writer-churns true|false     # default false
//! migrating-writer true|false  # default false
//! trace true                   # default false
//! keys <count>                 # default 1
//! zipf <exponent>              # default 1
//! shards <count>               # default 1
//! writers <count>              # default 1
//! fault delay <from|any> <to|any> <t0> <t1|max> add|set <ticks>
//! fault partition <t0> <t1|max> mod <m> <r> | ids <id,id,…> | first <k>
//! fault drop <from|any> <to|any> <t0> <t1|max> <probability>
//! regions <count>
//! region-delay <a> <b> <ticks> # directed; requires a prior `regions`
//! ```
//!
//! [`scenario_hash`] fingerprints `(file content, seed)` with FNV-1a so a
//! replay can assert it is running the very bytes a report referenced.
//!
//! [`ScriptedWorkload`]: crate::ScriptedWorkload

use dynareg_churn::LeaveSelector;
use dynareg_net::{DelayFault, DropRule, FaultAction, FaultPlan, NodeSet, Partition, RegionMatrix};
use dynareg_sim::{NodeId, Span, Time};

use crate::scenario::{ChurnChoice, NetClass, ProtocolChoice, ScenarioSpec};

/// The format tag every scenario file must start with.
pub const FORMAT_LINE: &str = "dynareg-scenario/1";

/// A scenario-file problem: what went wrong and (when parsing) where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenError {
    /// 1-based line number of the offending line; `0` for whole-file or
    /// write-side errors.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl ScenError {
    fn new(line: usize, msg: impl Into<String>) -> ScenError {
        ScenError {
            line,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for ScenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ScenError {}

/// FNV-1a fingerprint of `(file content, seed)`. Stable across platforms
/// and runs; two replays of the same bytes with the same seed — and only
/// those — share a hash.
pub fn scenario_hash(text: &str, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &b in text.as_bytes() {
        eat(b);
    }
    for b in seed.to_le_bytes() {
        eat(b);
    }
    h
}

fn time_str(t: Time) -> String {
    if t == Time::MAX {
        "max".to_string()
    } else {
        t.ticks().to_string()
    }
}

fn node_str(n: Option<NodeId>) -> String {
    n.map_or_else(|| "any".to_string(), |n| n.as_raw().to_string())
}

/// Serializes `spec` to canonical scenario-file text: fixed directive
/// order, optional directives only when set, fault blocks last.
///
/// # Errors
/// Fails if the spec carries a [`ScriptedWorkload`](crate::ScriptedWorkload)
/// — scripts are programmatic objects with no file representation.
pub fn write_scenario(spec: &ScenarioSpec) -> Result<String, ScenError> {
    if spec.script.is_some() {
        return Err(ScenError::new(
            0,
            "scripted workloads cannot be serialized to a scenario file",
        ));
    }
    let mut out = String::with_capacity(512);
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(FORMAT_LINE.to_string());
    line(format!(
        "protocol {}",
        match spec.protocol {
            ProtocolChoice::Synchronous => "sync",
            ProtocolChoice::SynchronousNoWait => "sync-nowait",
            ProtocolChoice::EventuallySynchronous => "es",
            ProtocolChoice::EsAtomic => "es-atomic",
        }
    ));
    line(match spec.net {
        NetClass::Synchronous => "net sync".to_string(),
        NetClass::SynchronousWorstCase => "net sync-worst".to_string(),
        NetClass::EventuallySynchronous { gst } => format!("net es {}", time_str(gst)),
        NetClass::FullyAsynchronous { cap_factor } => format!("net async {cap_factor}"),
    });
    line(format!("n {}", spec.n));
    line(format!("delta {}", spec.delta.as_ticks()));
    line(format!("duration {}", spec.duration.as_ticks()));
    if let Some(drain) = spec.drain {
        line(format!("drain {}", drain.as_ticks()));
    }
    line(format!("seed {}", spec.seed));
    line(match spec.churn {
        ChurnChoice::None => "churn none".to_string(),
        ChurnChoice::Constant(c) => format!("churn constant {c}"),
        ChurnChoice::Poisson(c) => format!("churn poisson {c}"),
        ChurnChoice::Burst {
            on,
            on_ticks,
            off,
            off_ticks,
        } => format!("churn burst {on} {on_ticks} {off} {off_ticks}"),
        ChurnChoice::Diurnal {
            peak,
            trough,
            period,
        } => format!("churn diurnal {peak} {trough} {period}"),
        ChurnChoice::Sessions { alpha, min_ticks } => {
            format!("churn sessions {alpha} {min_ticks}")
        }
        ChurnChoice::FlashCrowd {
            base,
            wave_at,
            wave_every,
            wave_joins,
            wave_ticks,
        } => format!("churn flash-crowd {base} {wave_at} {wave_every} {wave_joins} {wave_ticks}"),
    });
    line(format!(
        "selector {}",
        match spec.selector {
            LeaveSelector::Random => "random",
            LeaveSelector::OldestFirst => "oldest-first",
            LeaveSelector::NewestFirst => "newest-first",
            LeaveSelector::ActiveFirst => "active-first",
        }
    ));
    if let Some(we) = spec.write_every {
        line(format!("write-every {}", we.as_ticks()));
    }
    if let Some(wq) = spec.write_quiesce {
        line(format!("write-quiesce {}", wq.as_ticks()));
    }
    line(format!("reads-per-tick {}", spec.reads_per_tick));
    line(format!("writer-churns {}", spec.writer_churns));
    line(format!("migrating-writer {}", spec.migrating_writer));
    if spec.trace {
        line("trace true".to_string());
    }
    line(format!("keys {}", spec.keys));
    line(format!("zipf {}", spec.zipf_exponent));
    line(format!("shards {}", spec.shards));
    line(format!("writers {}", spec.writers));
    if let Some(plan) = spec.faults.as_ref().filter(|p| !p.is_empty()) {
        for f in plan.delay_rules() {
            let (verb, span) = match f.action {
                FaultAction::AddDelay(s) => ("add", s),
                FaultAction::SetDelay(s) => ("set", s),
            };
            line(format!(
                "fault delay {} {} {} {} {} {}",
                node_str(f.from),
                node_str(f.to),
                time_str(f.from_time),
                time_str(f.until_time),
                verb,
                span.as_ticks()
            ));
        }
        for p in plan.partitions() {
            let side = match &p.side_a {
                NodeSet::Modulo { modulo, residue } => format!("mod {modulo} {residue}"),
                NodeSet::FirstRaw(bound) => format!("first {bound}"),
                NodeSet::Ids(ids) => {
                    let csv: Vec<String> = ids.iter().map(|i| i.as_raw().to_string()).collect();
                    format!("ids {}", csv.join(","))
                }
            };
            line(format!(
                "fault partition {} {} {}",
                time_str(p.from_time),
                time_str(p.until_time),
                side
            ));
        }
        for d in plan.drops() {
            line(format!(
                "fault drop {} {} {} {} {}",
                node_str(d.from),
                node_str(d.to),
                time_str(d.from_time),
                time_str(d.until_time),
                d.probability
            ));
        }
        if let Some(region) = plan.region() {
            line(format!("regions {}", region.regions()));
            for a in 0..region.regions() {
                for b in 0..region.regions() {
                    let extra = region.get(a, b);
                    if !extra.is_zero() {
                        line(format!("region-delay {a} {b} {}", extra.as_ticks()));
                    }
                }
            }
        }
    }
    Ok(out)
}

fn expect_args<'a>(
    lineno: usize,
    toks: &'a [&'a str],
    n: usize,
    usage: &str,
) -> Result<&'a [&'a str], ScenError> {
    if toks.len() - 1 == n {
        Ok(&toks[1..])
    } else {
        Err(ScenError::new(lineno, format!("usage: {usage}")))
    }
}

fn num<T: std::str::FromStr>(lineno: usize, s: &str, what: &str) -> Result<T, ScenError> {
    s.parse()
        .map_err(|_| ScenError::new(lineno, format!("bad {what} `{s}`")))
}

fn time_of(lineno: usize, s: &str) -> Result<Time, ScenError> {
    if s == "max" {
        Ok(Time::MAX)
    } else {
        Ok(Time::at(num(lineno, s, "time")?))
    }
}

/// A half-open fault window `[t0, t1)`: `t0 == t1` is an empty window,
/// `t1 < t0` is rejected rather than left to silently never fire.
fn window_of(lineno: usize, t0: &str, t1: &str) -> Result<(Time, Time), ScenError> {
    let (from, until) = (time_of(lineno, t0)?, time_of(lineno, t1)?);
    if until < from {
        return Err(ScenError::new(
            lineno,
            format!("fault window ends before it starts ({t1} < {t0})"),
        ));
    }
    Ok((from, until))
}

fn node_of(lineno: usize, s: &str) -> Result<Option<NodeId>, ScenError> {
    if s == "any" {
        Ok(None)
    } else {
        Ok(Some(NodeId::from_raw(num(lineno, s, "node id")?)))
    }
}

fn bool_of(lineno: usize, s: &str) -> Result<bool, ScenError> {
    match s {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(ScenError::new(lineno, format!("bad bool `{s}`"))),
    }
}

fn rate_of(lineno: usize, s: &str, what: &str) -> Result<f64, ScenError> {
    let v: f64 = num(lineno, s, what)?;
    if v.is_finite() && (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(ScenError::new(lineno, format!("{what} must be in [0,1]")))
    }
}

/// Parses scenario-file text into a [`ScenarioSpec`].
///
/// Unknown directives, malformed values and out-of-range parameters are
/// reported with their 1-based line number; nothing in a parsed spec can
/// panic the model constructors at run time.
///
/// # Errors
/// Returns a [`ScenError`] naming the offending line.
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, ScenError> {
    let mut protocol = None;
    let mut net = None;
    let mut n: Option<usize> = None;
    let mut delta: Option<Span> = None;
    let mut duration = Span::ticks(300);
    let mut drain = None;
    let mut seed = 0u64;
    let mut churn = ChurnChoice::None;
    let mut selector = LeaveSelector::Random;
    let mut write_every = None;
    let mut write_quiesce = None;
    let mut reads_per_tick = 1.0f64;
    let mut writer_churns = false;
    let mut migrating_writer = false;
    let mut trace = false;
    let mut keys = 1u32;
    let mut zipf_exponent = 1.0f64;
    let mut shards = 1u32;
    let mut writers = 1usize;
    let mut plan = FaultPlan::default();
    let mut plan_touched = false;
    let mut saw_format = false;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        // `#` starts a comment anywhere on a line.
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if !saw_format {
            if line != FORMAT_LINE {
                return Err(ScenError::new(
                    lineno,
                    format!("expected format line `{FORMAT_LINE}`"),
                ));
            }
            saw_format = true;
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "protocol" => {
                let a = expect_args(lineno, &toks, 1, "protocol sync|sync-nowait|es|es-atomic")?;
                protocol = Some(match a[0] {
                    "sync" => ProtocolChoice::Synchronous,
                    "sync-nowait" => ProtocolChoice::SynchronousNoWait,
                    "es" => ProtocolChoice::EventuallySynchronous,
                    "es-atomic" => ProtocolChoice::EsAtomic,
                    other => {
                        return Err(ScenError::new(
                            lineno,
                            format!("unknown protocol `{other}`"),
                        ))
                    }
                });
            }
            "net" => {
                net = Some(match toks.get(1).copied() {
                    Some("sync") if toks.len() == 2 => NetClass::Synchronous,
                    Some("sync-worst") if toks.len() == 2 => NetClass::SynchronousWorstCase,
                    Some("es") if toks.len() == 3 => NetClass::EventuallySynchronous {
                        gst: time_of(lineno, toks[2])?,
                    },
                    Some("async") if toks.len() == 3 => NetClass::FullyAsynchronous {
                        cap_factor: num(lineno, toks[2], "cap factor")?,
                    },
                    _ => {
                        return Err(ScenError::new(
                            lineno,
                            "usage: net sync|sync-worst | net es <gst> | net async <cap>",
                        ))
                    }
                });
            }
            "n" => {
                let a = expect_args(lineno, &toks, 1, "n <count>")?;
                let count: usize = num(lineno, a[0], "system size")?;
                if count == 0 {
                    return Err(ScenError::new(lineno, "system size must be positive"));
                }
                n = Some(count);
            }
            "delta" => {
                let a = expect_args(lineno, &toks, 1, "delta <ticks>")?;
                let ticks: u64 = num(lineno, a[0], "delta")?;
                if ticks == 0 {
                    return Err(ScenError::new(lineno, "delta must be at least one tick"));
                }
                delta = Some(Span::ticks(ticks));
            }
            "duration" => {
                let a = expect_args(lineno, &toks, 1, "duration <ticks>")?;
                duration = Span::ticks(num(lineno, a[0], "duration")?);
            }
            "drain" => {
                let a = expect_args(lineno, &toks, 1, "drain <ticks>")?;
                drain = Some(Span::ticks(num(lineno, a[0], "drain")?));
            }
            "seed" => {
                let a = expect_args(lineno, &toks, 1, "seed <u64>")?;
                seed = num(lineno, a[0], "seed")?;
            }
            "churn" => {
                churn = parse_churn(lineno, &toks)?;
            }
            "selector" => {
                let a = expect_args(
                    lineno,
                    &toks,
                    1,
                    "selector random|oldest-first|newest-first|active-first",
                )?;
                selector = match a[0] {
                    "random" => LeaveSelector::Random,
                    "oldest-first" => LeaveSelector::OldestFirst,
                    "newest-first" => LeaveSelector::NewestFirst,
                    "active-first" => LeaveSelector::ActiveFirst,
                    other => {
                        return Err(ScenError::new(
                            lineno,
                            format!("unknown selector `{other}`"),
                        ))
                    }
                };
            }
            "write-every" => {
                let a = expect_args(lineno, &toks, 1, "write-every <ticks>")?;
                let ticks: u64 = num(lineno, a[0], "write period")?;
                if ticks == 0 {
                    return Err(ScenError::new(lineno, "write period must be positive"));
                }
                write_every = Some(Span::ticks(ticks));
            }
            "write-quiesce" => {
                let a = expect_args(lineno, &toks, 1, "write-quiesce <ticks>")?;
                write_quiesce = Some(Span::ticks(num(lineno, a[0], "write quiesce")?));
            }
            "reads-per-tick" => {
                let a = expect_args(lineno, &toks, 1, "reads-per-tick <rate>")?;
                let rate: f64 = num(lineno, a[0], "read rate")?;
                if !rate.is_finite() || rate < 0.0 {
                    return Err(ScenError::new(lineno, "read rate must be non-negative"));
                }
                reads_per_tick = rate;
            }
            "writer-churns" => {
                let a = expect_args(lineno, &toks, 1, "writer-churns true|false")?;
                writer_churns = bool_of(lineno, a[0])?;
            }
            "migrating-writer" => {
                let a = expect_args(lineno, &toks, 1, "migrating-writer true|false")?;
                migrating_writer = bool_of(lineno, a[0])?;
            }
            "trace" => {
                let a = expect_args(lineno, &toks, 1, "trace true|false")?;
                trace = bool_of(lineno, a[0])?;
            }
            "keys" => {
                let a = expect_args(lineno, &toks, 1, "keys <count>")?;
                let count: u32 = num(lineno, a[0], "key count")?;
                if count == 0 {
                    return Err(ScenError::new(lineno, "key count must be positive"));
                }
                keys = count;
            }
            "zipf" => {
                let a = expect_args(lineno, &toks, 1, "zipf <exponent>")?;
                let s: f64 = num(lineno, a[0], "zipf exponent")?;
                if !s.is_finite() || s < 0.0 {
                    return Err(ScenError::new(lineno, "zipf exponent must be non-negative"));
                }
                zipf_exponent = s;
            }
            "shards" => {
                let a = expect_args(lineno, &toks, 1, "shards <count>")?;
                let count: u32 = num(lineno, a[0], "shard count")?;
                if count == 0 {
                    return Err(ScenError::new(lineno, "shard count must be positive"));
                }
                shards = count;
            }
            "writers" => {
                let a = expect_args(lineno, &toks, 1, "writers <count>")?;
                let count: usize = num(lineno, a[0], "writer count")?;
                if count == 0 {
                    return Err(ScenError::new(lineno, "writer count must be positive"));
                }
                writers = count;
            }
            "fault" => {
                parse_fault(lineno, &toks, &mut plan)?;
                plan_touched = true;
            }
            "regions" => {
                let a = expect_args(lineno, &toks, 1, "regions <count>")?;
                let count: u32 = num(lineno, a[0], "region count")?;
                if count == 0 {
                    return Err(ScenError::new(lineno, "region count must be positive"));
                }
                plan.set_region(Some(RegionMatrix::new(count)));
                plan_touched = true;
            }
            "region-delay" => {
                let a = expect_args(lineno, &toks, 3, "region-delay <a> <b> <ticks>")?;
                let ra: u32 = num(lineno, a[0], "region")?;
                let rb: u32 = num(lineno, a[1], "region")?;
                let ticks: u64 = num(lineno, a[2], "region delay")?;
                let Some(region) = plan.region_mut() else {
                    return Err(ScenError::new(
                        lineno,
                        "region-delay requires a prior `regions` directive",
                    ));
                };
                if ra >= region.regions() || rb >= region.regions() {
                    return Err(ScenError::new(lineno, "region out of range"));
                }
                region.set(ra, rb, Span::ticks(ticks));
            }
            other => {
                return Err(ScenError::new(
                    lineno,
                    format!("unknown directive `{other}`"),
                ));
            }
        }
    }

    if !saw_format {
        return Err(ScenError::new(
            0,
            format!("empty file: expected `{FORMAT_LINE}`"),
        ));
    }
    let missing = |what: &str| ScenError::new(0, format!("missing required directive `{what}`"));
    Ok(ScenarioSpec {
        protocol: protocol.ok_or_else(|| missing("protocol"))?,
        net: net.ok_or_else(|| missing("net"))?,
        n: n.ok_or_else(|| missing("n"))?,
        delta: delta.ok_or_else(|| missing("delta"))?,
        churn,
        selector,
        duration,
        drain,
        seed,
        write_every,
        write_quiesce,
        reads_per_tick,
        writer_churns,
        migrating_writer,
        trace,
        script: None,
        faults: plan_touched.then_some(plan),
        keys,
        zipf_exponent,
        shards,
        writers,
    })
}

fn parse_churn(lineno: usize, toks: &[&str]) -> Result<ChurnChoice, ScenError> {
    let usage = "churn none|constant <c>|poisson <c>|burst …|diurnal …|sessions …|flash-crowd …";
    match toks.get(1).copied() {
        Some("none") if toks.len() == 2 => Ok(ChurnChoice::None),
        Some("constant") if toks.len() == 3 => Ok(ChurnChoice::Constant(rate_of(
            lineno,
            toks[2],
            "churn rate",
        )?)),
        Some("poisson") if toks.len() == 3 => Ok(ChurnChoice::Poisson(rate_of(
            lineno,
            toks[2],
            "churn rate",
        )?)),
        Some("burst") if toks.len() == 6 => {
            let choice = ChurnChoice::Burst {
                on: rate_of(lineno, toks[2], "storm rate")?,
                on_ticks: num(lineno, toks[3], "storm length")?,
                off: rate_of(lineno, toks[4], "quiet rate")?,
                off_ticks: num(lineno, toks[5], "quiet length")?,
            };
            if let ChurnChoice::Burst {
                on_ticks,
                off_ticks,
                ..
            } = choice
            {
                if on_ticks == 0 || off_ticks == 0 {
                    return Err(ScenError::new(lineno, "burst phases must be positive"));
                }
            }
            Ok(choice)
        }
        Some("diurnal") if toks.len() == 5 => {
            let peak = rate_of(lineno, toks[2], "peak rate")?;
            let trough = rate_of(lineno, toks[3], "trough rate")?;
            let period: u64 = num(lineno, toks[4], "period")?;
            if trough > peak {
                return Err(ScenError::new(lineno, "need trough <= peak"));
            }
            if period == 0 {
                return Err(ScenError::new(lineno, "period must be positive"));
            }
            Ok(ChurnChoice::Diurnal {
                peak,
                trough,
                period,
            })
        }
        Some("sessions") if toks.len() == 4 => {
            let alpha: f64 = num(lineno, toks[2], "alpha")?;
            let min_ticks: u64 = num(lineno, toks[3], "minimum session")?;
            if !alpha.is_finite() || alpha <= 0.0 {
                return Err(ScenError::new(lineno, "alpha must be positive"));
            }
            if min_ticks == 0 {
                return Err(ScenError::new(lineno, "minimum session must be positive"));
            }
            Ok(ChurnChoice::Sessions { alpha, min_ticks })
        }
        Some("flash-crowd") if toks.len() == 7 => {
            let base = rate_of(lineno, toks[2], "base rate")?;
            let wave_at: u64 = num(lineno, toks[3], "wave start")?;
            let wave_every: u64 = num(lineno, toks[4], "wave period")?;
            let wave_joins: u32 = num(lineno, toks[5], "wave joins")?;
            let wave_ticks: u64 = num(lineno, toks[6], "wave length")?;
            if wave_ticks == 0 {
                return Err(ScenError::new(lineno, "wave length must be positive"));
            }
            if wave_every != 0 && wave_every < wave_ticks {
                return Err(ScenError::new(lineno, "repeating waves must not overlap"));
            }
            Ok(ChurnChoice::FlashCrowd {
                base,
                wave_at,
                wave_every,
                wave_joins,
                wave_ticks,
            })
        }
        _ => Err(ScenError::new(lineno, format!("usage: {usage}"))),
    }
}

fn parse_fault(lineno: usize, toks: &[&str], plan: &mut FaultPlan) -> Result<(), ScenError> {
    match toks.get(1).copied() {
        Some("delay") if toks.len() == 8 => {
            let action = match toks[6] {
                "add" => FaultAction::AddDelay(Span::ticks(num(lineno, toks[7], "delay")?)),
                "set" => FaultAction::SetDelay(Span::ticks(num(lineno, toks[7], "delay")?)),
                other => {
                    return Err(ScenError::new(
                        lineno,
                        format!("unknown delay action `{other}` (want add|set)"),
                    ))
                }
            };
            let (from_time, until_time) = window_of(lineno, toks[4], toks[5])?;
            plan.push(DelayFault {
                from: node_of(lineno, toks[2])?,
                to: node_of(lineno, toks[3])?,
                from_time,
                until_time,
                action,
            });
            Ok(())
        }
        Some("partition") if toks.len() >= 5 => {
            let (from_time, until_time) = window_of(lineno, toks[2], toks[3])?;
            let side_a =
                match (toks[4], toks.len()) {
                    ("mod", 7) => {
                        let modulo: u64 = num(lineno, toks[5], "modulo")?;
                        if modulo == 0 {
                            return Err(ScenError::new(lineno, "modulo must be positive"));
                        }
                        NodeSet::Modulo {
                            modulo,
                            residue: num(lineno, toks[6], "residue")?,
                        }
                    }
                    ("first", 6) => NodeSet::FirstRaw(num(lineno, toks[5], "bound")?),
                    ("ids", 6) => {
                        let mut ids = Vec::new();
                        for part in toks[5].split(',') {
                            ids.push(NodeId::from_raw(num(lineno, part, "node id")?));
                        }
                        NodeSet::Ids(ids)
                    }
                    _ => return Err(ScenError::new(
                        lineno,
                        "usage: fault partition <t0> <t1|max> mod <m> <r> | ids <csv> | first <k>",
                    )),
                };
            plan.push_partition(Partition::new(side_a, from_time, until_time));
            Ok(())
        }
        Some("drop") if toks.len() == 7 => {
            let (from_time, until_time) = window_of(lineno, toks[4], toks[5])?;
            plan.push_drop(DropRule {
                from: node_of(lineno, toks[2])?,
                to: node_of(lineno, toks[3])?,
                from_time,
                until_time,
                probability: rate_of(lineno, toks[6], "drop probability")?,
            });
            Ok(())
        }
        _ => Err(ScenError::new(
            lineno,
            "usage: fault delay …|partition …|drop …",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    fn kitchen_sink() -> ScenarioSpec {
        let plan = FaultPlan::default()
            .with(DelayFault::slow_everything(
                Time::at(10),
                Time::at(20),
                Span::ticks(2),
            ))
            .with(DelayFault::starve_recipient(
                NodeId::from_raw(3),
                Time::at(5),
                Time::MAX,
                Span::ticks(9),
            ))
            .with_partition(Partition::even_odd(Time::at(40), Time::at(80)))
            .with_partition(Partition::new(
                NodeSet::Ids(vec![NodeId::from_raw(1), NodeId::from_raw(4)]),
                Time::at(90),
                Time::at(95),
            ))
            .with_partition(Partition::new(
                NodeSet::FirstRaw(6),
                Time::at(100),
                Time::MAX,
            ))
            .with_drop(DropRule::lossy_everything(Time::at(0), Time::at(50), 0.25))
            .with_region(
                RegionMatrix::new(3)
                    .with_link(0, 1, Span::ticks(4))
                    .with_link(1, 2, Span::ticks(6)),
            );
        let mut spec = Scenario::eventually_synchronous(24, Span::ticks(3), Time::at(60))
            .churn_choice(ChurnChoice::FlashCrowd {
                base: 0.01,
                wave_at: 50,
                wave_every: 100,
                wave_joins: 6,
                wave_ticks: 4,
            })
            .duration(Span::ticks(600))
            .drain(Span::ticks(50))
            .seed(42)
            .reads_per_tick(1.5)
            .into_spec();
        spec.write_every = Some(Span::ticks(9));
        spec.write_quiesce = Some(Span::ticks(30));
        spec.keys = 8;
        spec.zipf_exponent = 0.8;
        spec.shards = 2;
        spec.writers = 3;
        spec.faults = Some(plan);
        spec
    }

    #[test]
    fn kitchen_sink_round_trips() {
        let spec = kitchen_sink();
        let text = write_scenario(&spec).unwrap();
        let parsed = parse_scenario(&text).unwrap();
        assert_eq!(parsed, spec);
        // Canonical text is a fixed point of write ∘ parse.
        assert_eq!(write_scenario(&parsed).unwrap(), text);
    }

    #[test]
    fn golden_format_is_pinned() {
        let spec = Scenario::synchronous(10, Span::ticks(3))
            .churn_rate(0.01)
            .duration(Span::ticks(200))
            .seed(7)
            .into_spec();
        let expected = "\
dynareg-scenario/1
protocol sync
net sync
n 10
delta 3
duration 200
seed 7
churn constant 0.01
selector random
reads-per-tick 1
writer-churns false
migrating-writer false
keys 1
zipf 1
shards 1
writers 1
";
        assert_eq!(write_scenario(&spec).unwrap(), expected);
        assert_eq!(parse_scenario(expected).unwrap(), spec);
    }

    #[test]
    fn comments_blanks_and_duplicates_are_tolerated() {
        let text = "\
# a hand-written scenario
dynareg-scenario/1

protocol es-atomic
net es max
n 9
delta 2
seed 1
seed 2      # last one wins
";
        let spec = parse_scenario(text).unwrap();
        assert_eq!(spec.protocol, ProtocolChoice::EsAtomic);
        assert_eq!(spec.net, NetClass::EventuallySynchronous { gst: Time::MAX });
        assert_eq!(spec.seed, 2);
        assert_eq!(spec.duration, Span::ticks(300), "defaults hold");
        assert!(spec.faults.is_none());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let no_format = parse_scenario("protocol sync\n");
        assert_eq!(no_format.unwrap_err().line, 1);

        let bad = "dynareg-scenario/1\nprotocol sync\nnet sync\nn 5\ndelta 0\n";
        let err = parse_scenario(bad).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.msg.contains("delta"), "{err}");

        let unknown = "dynareg-scenario/1\nflux-capacitor 88\n";
        let err = parse_scenario(unknown).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("flux-capacitor"), "{err}");

        let missing = parse_scenario("dynareg-scenario/1\nprotocol sync\n").unwrap_err();
        assert!(missing.msg.contains("missing required"), "{missing}");

        let orphan =
            "dynareg-scenario/1\nprotocol sync\nnet sync\nn 5\ndelta 2\nregion-delay 0 1 4\n";
        let err = parse_scenario(orphan).unwrap_err();
        assert!(err.msg.contains("regions"), "{err}");
    }

    fn fault_line_error(line: &str) -> Option<ScenError> {
        let text = format!("dynareg-scenario/1\nprotocol sync\nnet sync\nn 5\ndelta 2\n{line}\n");
        parse_scenario(&text).err()
    }

    #[test]
    fn inverted_delay_window_is_rejected() {
        let err = fault_line_error("fault delay any any 200 0 add 3").expect("t1 < t0");
        assert_eq!(err.line, 6);
        assert!(err.msg.contains("ends before it starts"), "{err}");
        assert!(fault_line_error("fault delay any any 50 50 add 3").is_none());
    }

    #[test]
    fn inverted_partition_window_is_rejected() {
        let err = fault_line_error("fault partition 200 0 mod 2 0").expect("t1 < t0");
        assert_eq!(err.line, 6);
        assert!(err.msg.contains("ends before it starts"), "{err}");
        assert!(fault_line_error("fault partition 50 50 mod 2 0").is_none());
    }

    #[test]
    fn inverted_drop_window_is_rejected() {
        let err = fault_line_error("fault drop any any 200 0 0.5").expect("t1 < t0");
        assert_eq!(err.line, 6);
        assert!(err.msg.contains("ends before it starts"), "{err}");
        assert!(fault_line_error("fault drop any any 50 50 0.5").is_none());
        assert!(fault_line_error("fault drop any any 50 max 0.5").is_none());
    }

    #[test]
    fn scripted_specs_refuse_to_serialize() {
        let mut spec = Scenario::synchronous(5, Span::ticks(2)).into_spec();
        spec.script = Some(crate::ScriptedWorkload::default());
        let err = write_scenario(&spec).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.msg.contains("scripted"), "{err}");
    }

    #[test]
    fn hash_covers_content_and_seed() {
        let a = scenario_hash("dynareg-scenario/1\n", 1);
        assert_ne!(a, scenario_hash("dynareg-scenario/1\n", 2), "seed matters");
        assert_ne!(a, scenario_hash("dynareg-scenario/1 \n", 1), "bytes matter");
        assert_eq!(a, scenario_hash("dynareg-scenario/1\n", 1), "stable");
    }
}
