//! Absolute pins of the join handshake's re-fire paths.
//!
//! Every other digest gate compares two runs of the same build (observed
//! against plain, 1 thread against N, `--legacy` against `--shards 1`),
//! so a change that shifts both sides alike passes them all. These cases
//! pin the *values*: the run digest plus the counters `run_digest` leaves
//! out (retransmit markers, full re-inquiries, re-inquiry rounds) and the
//! total message count, for each re-fire path of `dynareg_core::space`:
//!
//! * the ES silence beat with backoff (`drop_lossy_es*.dyn`), through the
//!   solo adapter (`run`) and the register space (`run_spaced`);
//! * zero-reply interception of the sync post-inquiry wait, at 1 key
//!   (both adapters) and at 4 keys (register space);
//! * the sharded sync handshake (`hot_key_zipf_drops.dyn`, K = 8, G = 2)
//!   and, under heavier loss, its withheld expiry with the full
//!   re-inquiry fallback;
//! * the sharded ES re-inquiry beat, with a retransmit policy attached
//!   but inert;
//! * a lossless baseline, where the policy must stay invisible.
//!
//! Each case that names a re-fire path also asserts its counter is
//! nonzero, so the pin cannot silently stop covering that path.

use dynareg_fleet::run_digest;
use dynareg_net::{DropRule, FaultPlan};
use dynareg_sim::{Span, Time};
use dynareg_testkit::{parse_scenario, RunReport, Scenario, ScenarioSpec};

/// The pinned observables of one run.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    digest: u64,
    join_retransmits: u64,
    inquiry_full: u64,
    reinquiry_rounds: u64,
    total_messages: u64,
}

fn pin_of(report: &RunReport) -> Pin {
    Pin {
        digest: run_digest(report),
        join_retransmits: report.join_retransmits(),
        inquiry_full: report.inquiry_full(),
        reinquiry_rounds: report.reinquiry_rounds(),
        total_messages: report.total_messages,
    }
}

fn corpus(name: &str) -> ScenarioSpec {
    let path = format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_scenario(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A sync spec losing half of all messages for most of its run: some
/// inquiries go entirely unanswered, so the 2δ wait expires with zero
/// replies and is intercepted.
fn lossy_sync(keys: u32) -> ScenarioSpec {
    Scenario::synchronous(8, Span::ticks(3))
        .churn_rate(0.02)
        .duration(Span::ticks(400))
        .seed(3)
        .keys(keys)
        .faults(FaultPlan::default().with_drop(DropRule::lossy_everything(
            Time::ZERO,
            Time::at(300),
            0.5,
        )))
        .into_spec()
}

/// A sharded ES space under loss: the space's own re-inquiry beat re-fires
/// full inquiries while a shard is short of its join quorum.
fn lossy_sharded_es() -> ScenarioSpec {
    Scenario::eventually_synchronous(16, Span::ticks(3), Time::ZERO)
        .churn_rate(0.01)
        .duration(Span::ticks(400))
        .seed(7)
        .keys(8)
        .join_shards(2)
        .faults(FaultPlan::default().with_drop(DropRule::lossy_everything(
            Time::ZERO,
            Time::at(300),
            0.2,
        )))
        .into_spec()
}

/// A sharded sync space under heavy loss: a shard short of its reply
/// quorum withholds its keys at the 2δ expiry, which re-fires a full
/// inquiry and re-arms the wait.
fn lossy_sharded_sync() -> ScenarioSpec {
    Scenario::synchronous(12, Span::ticks(3))
        .churn_rate(0.02)
        .duration(Span::ticks(400))
        .seed(3)
        .keys(8)
        .join_shards(2)
        .faults(FaultPlan::default().with_drop(DropRule::lossy_everything(
            Time::ZERO,
            Time::at(300),
            0.3,
        )))
        .into_spec()
}

#[track_caller]
fn check(report: &RunReport, expect: Pin) {
    assert_eq!(pin_of(report), expect);
}

#[test]
fn es_silence_beat_through_the_solo_adapter() {
    let report = corpus("drop_lossy_es.dyn").run();
    assert!(report.join_retransmits() > 0);
    check(
        &report,
        Pin {
            digest: 14276169233670041698,
            join_retransmits: 7,
            inquiry_full: 0,
            reinquiry_rounds: 0,
            total_messages: 22593,
        },
    );
}

#[test]
fn es_silence_beat_through_the_register_space() {
    let report = corpus("drop_lossy_es.dyn").run_spaced();
    assert!(report.join_retransmits() > 0);
    check(
        &report,
        Pin {
            digest: 14276169233670041698,
            join_retransmits: 7,
            inquiry_full: 0,
            reinquiry_rounds: 0,
            total_messages: 22593,
        },
    );
}

#[test]
fn es_silence_beat_under_harsh_loss() {
    let report = corpus("drop_lossy_es_harsh.dyn").run();
    assert!(report.join_retransmits() > 0);
    check(
        &report,
        Pin {
            digest: 3736968808126402185,
            join_retransmits: 39,
            inquiry_full: 0,
            reinquiry_rounds: 0,
            total_messages: 19855,
        },
    );
}

/// The sharded sync corpus case: its 10% loss never starves a shard for a
/// whole 2δ wait, so it pins the forced-batch G = 2 handshake without a
/// withheld expiry (that path is `sharded_withheld_expiry_…` below).
#[test]
fn sharded_sync_hot_key_corpus_case() {
    let report = corpus("hot_key_zipf_drops.dyn").run();
    assert_eq!(report.shards, 2);
    check(
        &report,
        Pin {
            digest: 6732545643210220034,
            join_retransmits: 0,
            inquiry_full: 0,
            reinquiry_rounds: 0,
            total_messages: 8195,
        },
    );
}

#[test]
fn sharded_withheld_expiry_refires_a_full_inquiry() {
    let report = lossy_sharded_sync().run();
    assert!(report.inquiry_full() > 0);
    assert_eq!(report.join_retransmits(), 0, "the policy is inert at G > 1");
    check(
        &report,
        Pin {
            digest: 7491621559275743511,
            join_retransmits: 0,
            inquiry_full: 108,
            reinquiry_rounds: 9,
            total_messages: 2410,
        },
    );
}

#[test]
fn lossless_baseline_through_the_solo_adapter() {
    let report = corpus("paper_baseline.dyn").run();
    check(
        &report,
        Pin {
            digest: 11468314867120200537,
            join_retransmits: 0,
            inquiry_full: 0,
            reinquiry_rounds: 0,
            total_messages: 5045,
        },
    );
}

#[test]
fn lossless_baseline_through_the_register_space() {
    let report = corpus("paper_baseline.dyn").run_spaced();
    check(
        &report,
        Pin {
            digest: 11468314867120200537,
            join_retransmits: 0,
            inquiry_full: 0,
            reinquiry_rounds: 0,
            total_messages: 5045,
        },
    );
}

#[test]
fn sync_zero_reply_interception_at_one_key() {
    let report = lossy_sync(1).run();
    assert!(report.join_retransmits() > 0);
    check(
        &report,
        Pin {
            digest: 10616813138711250307,
            join_retransmits: 5,
            inquiry_full: 0,
            reinquiry_rounds: 0,
            total_messages: 1035,
        },
    );
}

#[test]
fn sync_zero_reply_interception_at_one_key_spaced() {
    let report = lossy_sync(1).run_spaced();
    assert!(report.join_retransmits() > 0);
    check(
        &report,
        Pin {
            digest: 10616813138711250307,
            join_retransmits: 5,
            inquiry_full: 0,
            reinquiry_rounds: 0,
            total_messages: 1035,
        },
    );
}

#[test]
fn sync_zero_reply_interception_at_four_keys() {
    let report = lossy_sync(4).run();
    assert!(report.join_retransmits() > 0);
    check(
        &report,
        Pin {
            digest: 16951485861842270003,
            join_retransmits: 6,
            inquiry_full: 0,
            reinquiry_rounds: 0,
            total_messages: 1144,
        },
    );
}

#[test]
fn sharded_es_reinquiry_beat_with_an_inert_retransmit_policy() {
    let report = lossy_sharded_es().run();
    assert!(report.reinquiry_rounds() > 0);
    assert_eq!(report.join_retransmits(), 0, "the policy is inert at G > 1");
    check(
        &report,
        Pin {
            digest: 2245888937363746265,
            join_retransmits: 0,
            inquiry_full: 544,
            reinquiry_rounds: 34,
            total_messages: 15532,
        },
    );
}
