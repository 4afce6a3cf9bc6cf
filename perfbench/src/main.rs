//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one named workload for about `s` seconds of host time, one world
//! at a time (a closed loop): every world is built, simulated and checked
//! before the next starts. Inside a world the seeded rate workload is open
//! loop in simulated time — it issues its reads and writes on schedule
//! whatever the host speed.
//!
//! * `--trace 0` repeats the untraced world and reports the end-to-end
//!   metrics: medians over the worlds run, tick percentiles pooled over
//!   every simulated tick.
//! * `--trace 1` repeats the untraced world for half the time, then runs
//!   it once more with every layer wrapped in a timing decorator (see
//!   [`probe`]) and reports the per-layer metrics.
//!
//! Every world's regular and live verdicts are asserted, and every world —
//! traced or not — must produce the same wall-clock-free digest. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Every `*_ticks` metric is simulated time; every `*_s`, `*_us` and
//! `*_ns` metric is host time. Malformed arguments print a one-line usage
//! error and exit 2; a failed check exits 1 after printing the result.

// detlint: allow(unsafe-audit) -- one audited foreign call, getrusage(2) in `rusage`, reads peak RSS and fault counts; the deny below keeps every other module unsafe-free
#![deny(unsafe_code)]

mod probe;
mod rusage;
mod stats;
mod workloads;

use std::process::ExitCode;

use probe::{since_ns, stamp};
use stats::{beyond, median, nearest_rank};
use workloads::{Size, Spec, WorldRun, LABELS, NAMES};

const USAGE: &str = "perfbench --workload <solo_sync_soak|keyed_zipf_space|es_lossy_quorum> \
                     [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]";

/// Worlds run at least this often, whatever the time budget. The first
/// is a warm-up: it is checked like every other world, but its timings
/// are left out.
const MIN_WORLDS: usize = 4;
/// Set-up is sampled in a loop of builds dropped unrun, before any world
/// runs: at least [`SETUP_MIN`] times, then until [`SETUP_BUDGET_S`] host
/// seconds or [`SETUP_MAX`] samples.
const SETUP_MIN: usize = 15;
/// See [`SETUP_MIN`].
const SETUP_MAX: usize = 5000;
/// See [`SETUP_MIN`].
const SETUP_BUDGET_S: f64 = 0.25;
/// No new world starts after this many host seconds.
const HARD_STOP_S: f64 = 120.0;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg} — usage: {USAGE}");
    std::process::exit(2);
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Args {
    let mut workload: Option<String> = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut traced = false;
    let mut size = Size::Full;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || match args.next() {
            Some(v) => v,
            None => usage_error(&format!("{flag} needs a value")),
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                let v = value();
                seed = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--seed takes an unsigned integer, got `{v}`"))
                });
            }
            "--seconds" => {
                let v = value();
                seconds = match v.parse() {
                    Ok(s) if (1..=600).contains(&s) => s,
                    _ => usage_error(&format!("--seconds takes an integer in 1..=600, got `{v}`")),
                };
            }
            "--trace" => {
                let v = value();
                traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error(&format!("--trace takes 0 or 1, got `{v}`")),
                };
            }
            "--size" => {
                let v = value();
                size = match v.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => usage_error(&format!("--size takes full or tiny, got `{v}`")),
                };
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let Some(name) = workload else {
        usage_error("--workload is required");
    };
    let Some(spec) = Spec::named(&name, size) else {
        usage_error(&format!(
            "unknown workload `{name}` (expected one of {})",
            NAMES.join(", ")
        ));
    };
    Args {
        spec,
        seed,
        seconds,
        traced,
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Default)]
struct Report(Vec<Metric>);

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn count(&mut self, name: impl Into<String>, value: u64) {
        self.put(name, value as f64, "count");
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|m| m.value.is_finite())
    }
}

/// A finite number as JSON; non-finite values become 0 (and the report is
/// marked incorrect by the caller).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn main() -> ExitCode {
    let args = parse_args(std::env::args().skip(1));
    let spec = &args.spec;
    println!("workload {}", spec.describe());
    println!(
        "seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );

    let setups = if args.traced {
        Vec::new()
    } else {
        sample_setups(spec, args.seed)
    };

    let start = stamp();
    let elapsed = || since_ns(start) as f64 * 1e-9;
    let budget = if args.traced {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };

    let mut worlds: Vec<WorldRun> = Vec::new();
    loop {
        let run = workloads::run(spec, args.seed, false);
        let took = run.wall_s();
        worlds.push(run);
        let now = elapsed();
        if worlds.len() >= MIN_WORLDS && (now >= budget || now + took > HARD_STOP_S) {
            break;
        }
    }
    let peak_rss_kib = rusage::now().max_rss_kib;

    let traced = args.traced.then(|| workloads::run(spec, args.seed, true));

    let mut correct = true;
    let digest = worlds[0].digest;
    for (i, w) in worlds.iter().chain(traced.iter()).enumerate() {
        let tag = if i < worlds.len() {
            format!("world {i}")
        } else {
            "traced world".to_string()
        };
        println!(
            "{tag}: regular={} live={} digest={:016x} ops={:?} events={} sim_s={:.4}",
            if w.regular { "OK" } else { "VIOLATED" },
            if w.live { "OK" } else { "STUCK" },
            w.digest,
            w.ops,
            w.events,
            w.sim_s,
        );
        if !w.regular || !w.live {
            println!("check failed: {tag} is not regular and live");
            correct = false;
        }
        if w.digest != digest {
            println!(
                "check failed: {tag} digest {:016x} differs from {digest:016x}",
                w.digest
            );
            correct = false;
        }
    }

    let attempted: u64 = worlds
        .iter()
        .chain(traced.iter())
        .map(|w| w.ops.attempted())
        .sum();
    let failed: u64 = worlds
        .iter()
        .chain(traced.iter())
        .map(|w| w.ops.failed())
        .sum();
    println!(
        "op_fail_ratio {} = {failed} failed / {attempted} attempted \
         (attempted = joins + reads + writes invoked + requests refused; \
         failed = stuck on a staying process + refused + irregular reads)",
        ratio(failed as f64, attempted as f64)
    );
    let [join, read, write] = worlds[0].p99_ticks;
    println!("simulated p99 latency: join {join} ticks, read {read} ticks, write {write} ticks");

    let report = match &traced {
        None => end_to_end(&setups, &worlds[1..], peak_rss_kib),
        Some(t) => {
            let (report, ok) = per_layer(&worlds[1..], t);
            correct &= ok;
            report
        }
    };
    if !report.all_finite() {
        println!("check failed: a metric is not a finite number");
        correct = false;
    }
    for m in &report.0 {
        println!("{:<28} {:>18} {}", m.name, json_number(m.value), m.unit);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        report.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set-up seconds of repeated builds; see [`SETUP_MIN`].
fn sample_setups(spec: &Spec, seed: u64) -> Vec<f64> {
    let start = stamp();
    let mut setups = Vec::new();
    while setups.len() < SETUP_MIN
        || (setups.len() < SETUP_MAX && (since_ns(start) as f64) * 1e-9 < SETUP_BUDGET_S)
    {
        setups.push(workloads::setup_only(spec, seed));
    }
    setups
}

/// The end-to-end metrics of the timed untraced worlds.
fn end_to_end(setups: &[f64], worlds: &[WorldRun], peak_rss_kib: u64) -> Report {
    let sims: Vec<f64> = worlds.iter().map(|w| w.sim_s).collect();
    let walls: Vec<f64> = worlds.iter().map(WorldRun::wall_s).collect();
    let rates: Vec<f64> = worlds
        .iter()
        .map(|w| ratio(w.ops.completed() as f64, w.sim_s))
        .collect();
    // Per-world tick percentiles, then their medians: a slow stretch of
    // the host shifts a few worlds, not the reported figure.
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut ticks = 0;
    let mut min_beyond = usize::MAX;
    for w in worlds {
        let mut t = w.recorded.tick_ns.clone();
        t.sort_unstable();
        p50s.push(nearest_rank(&t, 0.5).unwrap_or(0) as f64 * 1e-3);
        p99s.push(nearest_rank(&t, 0.99).unwrap_or(0) as f64 * 1e-3);
        ticks += t.len();
        min_beyond = min_beyond.min(beyond(&t, 0.99));
    }
    println!(
        "samples: {} timed worlds after one warm-up, {} set-ups, {ticks} ticks \
         (each world's p99 has at least {min_beyond} ticks beyond it)",
        worlds.len(),
        setups.len(),
    );

    let mut r = Report::default();
    r.put("setup_s", median(setups), "s");
    r.put("sim_s", median(&sims), "s");
    r.put("wall_s", median(&walls), "s");
    r.put("ops_per_s", median(&rates), "1/s");
    r.put("tick_p50_us", median(&p50s), "us");
    r.put("tick_p99_us", median(&p99s), "us");
    r.put("peak_rss_mib", peak_rss_kib as f64 / 1024.0, "MiB");
    r
}

/// The per-layer metrics of the traced world `t`, against the timed
/// untraced `worlds`; the flag is false if the attribution does not hold.
fn per_layer(worlds: &[WorldRun], t: &WorldRun) -> (Report, bool) {
    let rec = &t.recorded;
    let sim = t.sim_s;
    let untraced_sim = median(&worlds.iter().map(|w| w.sim_s).collect::<Vec<_>>());
    let core = rec.core();
    let residual = sim - core.secs() - rec.delay.secs() - rec.churn.secs();
    let share = |s: f64| ratio(s, sim);
    let timed_calls = core.calls + rec.delay.calls + rec.churn.calls;
    let span_ns = probe::span_ns(1_000_000);

    let mut ok = true;
    let shares = [
        share(core.secs()),
        share(rec.delay.secs()),
        share(rec.churn.secs()),
        share(residual),
    ];
    let sum: f64 = shares.iter().sum();
    println!(
        "attribution of traced sim_s {sim:.4} s: core {:.4} + net {:.4} + churn {:.4} + residual {:.4} = {sum:.6}",
        shares[0], shares[1], shares[2], shares[3]
    );
    if shares.iter().any(|&s| s < 0.0) || (sum - 1.0).abs() > 1e-9 {
        println!("check failed: layer shares are negative or do not sum to 1");
        ok = false;
    }

    let mut r = Report::default();
    r.count("core.deliver_calls", rec.deliver.calls);
    r.put("core.deliver_s", rec.deliver.secs(), "s");
    r.put("core.deliver_share", share(rec.deliver.secs()), "ratio");
    r.put(
        "core.deliver_ns_p50",
        rec.deliver_hist.quantile(0.5) as f64,
        "ns",
    );
    r.put(
        "core.deliver_ns_p99",
        rec.deliver_hist.quantile(0.99) as f64,
        "ns",
    );
    r.count("core.timer_calls", rec.timer.calls);
    r.put("core.timer_s", rec.timer.secs(), "s");
    r.count("core.enter_calls", rec.enter.calls);
    r.put("core.enter_s", rec.enter.secs(), "s");
    r.count("core.client_calls", rec.client.calls);
    r.put("core.client_s", rec.client.secs(), "s");
    r.count("core.spawn_calls", rec.spawn.calls);
    r.put("core.spawn_s", rec.spawn.secs(), "s");
    r.count("core.calls", core.calls);
    r.put("core.s", core.secs(), "s");
    r.put("core.share", shares[0], "ratio");
    r.count("core.effects", rec.effects);
    r.put(
        "core.effects_per_call",
        ratio(rec.effects as f64, core.calls as f64),
        "ratio",
    );
    r.count("core.payload_entries", rec.payload_entries);
    r.count("core.join_retransmits", rec.join_retransmits);

    let ticks = rec.tick_ns.len() as u64 + 1;
    r.count("sim.events", t.events);
    r.put(
        "sim.events_per_tick",
        ratio(t.events as f64, ticks as f64),
        "ratio",
    );
    r.put(
        "sim.events_per_s",
        ratio(t.events as f64, untraced_sim),
        "1/s",
    );

    let net = &t.net;
    r.count("net.sent", net.sent);
    for (label, &sent) in LABELS.iter().zip(&net.sent_by_label) {
        r.count(format!("net.sent.{label}"), sent);
    }
    r.count("net.sent.other", net.sent_by_label[LABELS.len()]);
    r.count("net.dropped_departed", net.dropped_departed);
    r.count("net.dropped_faults", net.dropped_faults);
    r.put(
        "net.delivered_ratio",
        ratio(net.delivered as f64, net.sent as f64),
        "ratio",
    );
    r.count("net.delta_overruns", net.delta_overruns);
    r.count("net.delay_calls", rec.delay.calls);
    r.put("net.delay_s", rec.delay.secs(), "s");
    r.put("net.delay_share", shares[1], "ratio");

    r.count("churn.calls", rec.churn.calls);
    r.put("churn.s", rec.churn.secs(), "s");
    r.put("churn.share", shares[2], "ratio");
    r.count("churn.joins", t.churn.0);
    r.count("churn.leaves", t.churn.1);

    r.put("testkit.residual_s", residual, "s");
    r.put("testkit.residual_share", shares[3], "ratio");
    r.count(
        "testkit.ops_invoked",
        t.ops.joins_invoked + t.ops.client_invoked,
    );
    r.count("testkit.ops_completed", t.ops.completed());
    r.count("testkit.ops_skipped_busy", t.skipped_busy);
    r.count("testkit.workload_skipped", t.workload_skipped);
    r.count("testkit.write_gated", t.write_gated);
    r.put(
        "testkit.op_fail_ratio",
        ratio(t.ops.failed() as f64, t.ops.attempted() as f64),
        "ratio",
    );
    r.put("testkit.join_p99_ticks", t.p99_ticks[0] as f64, "ticks");
    r.put("testkit.read_p99_ticks", t.p99_ticks[1] as f64, "ticks");
    r.put("testkit.write_p99_ticks", t.p99_ticks[2] as f64, "ticks");

    let med = |f: fn(&WorldRun) -> f64| median(&worlds.iter().map(f).collect::<Vec<_>>());
    let check_s = med(WorldRun::check_s);
    r.put("verify.check_s", check_s, "s");
    r.put("verify.atomicity_s", med(|w| w.atomicity_s), "s");
    r.put("verify.liveness_s", med(|w| w.liveness_s), "s");
    r.count("verify.reads_checked", t.reads_checked);
    r.put(
        "verify.reads_per_s",
        ratio(t.reads_checked as f64, check_s),
        "1/s",
    );

    r.put("trace.sim_s", sim, "s");
    r.put("trace.untraced_sim_s", untraced_sim, "s");
    r.put("trace.overhead_ratio", ratio(sim, untraced_sim), "ratio");
    r.put("trace.span_ns", span_ns, "ns");
    r.count("trace.timed_calls", timed_calls);
    r.put(
        "trace.span_cost_s",
        span_ns * timed_calls as f64 * 1e-9,
        "s",
    );
    r.put("proc.minor_faults", med(|w| w.minor_faults as f64), "count");
    (r, ok)
}
