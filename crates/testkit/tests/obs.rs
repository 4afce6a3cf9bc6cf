//! Integration tests for the observability layer: causal op spans,
//! `why_stuck` on a real wedged scenario, the flight-recorder ring, and
//! the timeseries JSONL round-trip.

use dynareg_sim::obs::{ObsConfig, Timeseries, TIMESERIES_SCHEMA};
use dynareg_sim::{Span, Time};
use dynareg_testkit::{parse_scenario, OpPhase, Scenario};

/// A total-loss variant of the lossy-ES corpus scenario: with every
/// message dropped for the whole run, joiners wedge no matter how often
/// the bounded retransmit re-fires (the committed corpus file itself now
/// converges once its loss window ends — that direction is pinned in
/// `loss_convergence.rs`). `why_stuck` must name the actual lost join
/// messages and the drop rule that swallowed them — the one-query
/// diagnosis the layer exists for.
#[test]
fn why_stuck_names_the_dropped_join_messages_in_the_lossy_es_wedge() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/drop_lossy_es.dyn"
    );
    let text = std::fs::read_to_string(path).expect("drop_lossy_es.dyn is committed");
    // Escalate the committed loss windows to a permanent 100% drop: no
    // handshake (or retransmission of one) can ever land, so the wedge
    // this test dissects is guaranteed to persist.
    let text = text
        .replace(
            "fault drop any any 0 200 0.25",
            "fault drop any any 0 700 1.0",
        )
        .replace("fault drop any any 200 550 0.05", "");
    let spec = parse_scenario(&text).expect("corpus file parses");
    let report = spec.run_observed(ObsConfig {
        spans: true,
        timeseries_every: None,
        flight_recorder: Some(4096),
    });

    let obs = report.obs.as_ref().expect("observed run carries a report");
    let stuck = obs.why_stuck_all();
    assert!(
        !stuck.is_empty(),
        "the lossy wedge must leave stuck join spans"
    );
    // At least one wedged join must have its lost protocol messages
    // attributed: a dropped join-side message (INQUIRY out or a reply
    // back) with the drop rule named.
    let with_loss = stuck
        .iter()
        .find(|w| w.span.label == "join" && !w.lost.is_empty())
        .expect("some wedged join lost a message to the drop rules");
    let rendered = with_loss.to_string();
    assert!(
        rendered.contains("stuck join"),
        "chain names the operation: {rendered}"
    );
    assert!(
        with_loss
            .lost
            .iter()
            .any(|m| m.label == "INQUIRY" || m.label == "REPLY" || m.label == "DL_PREV"),
        "lost messages carry join-protocol labels: {rendered}"
    );
    assert!(
        rendered.contains("fault-dropped"),
        "each lost copy names the fault that swallowed it: {rendered}"
    );

    // The flight dump is a schema-tagged JSONL artifact carrying the
    // ring's retained tail plus every stuck chain.
    let dump = obs.flight_dump(&report.trace);
    let header = dump.lines().next().expect("dump has a header");
    assert!(header.contains("\"schema\":\"dynareg-flight/1\""));
    assert!(dump.contains("\"why_stuck\""));
    assert!(
        report.trace.len() <= 4096,
        "flight ring bounds the retained trace"
    );
}

/// Healthy runs: spans complete, phases are time-ordered, and a
/// completed join observed quorum progress.
#[test]
fn clean_run_spans_complete_with_ordered_phases() {
    let report = Scenario::eventually_synchronous(10, Span::ticks(3), Time::at(0))
        .churn_rate(0.01)
        .duration(Span::ticks(200))
        .seed(3)
        .run_observed(ObsConfig::full());
    assert!(report.liveness.is_ok(), "healthy scenario stays live");

    let obs = report.obs.as_ref().expect("observed run carries a report");
    assert!(!obs.spans.is_empty(), "churn + workload produced spans");
    let completed: Vec<_> = obs.spans.iter().filter(|s| !s.is_stuck()).collect();
    assert!(!completed.is_empty());
    for span in &completed {
        assert_eq!(span.phases.first().unwrap().phase, OpPhase::Invoked);
        assert_eq!(span.phases.last().unwrap().phase, OpPhase::Completed);
        assert!(
            span.phases.windows(2).all(|w| w[0].at <= w[1].at),
            "phase times are monotone"
        );
    }
    let join = completed
        .iter()
        .find(|s| s.label == "join")
        .expect("some join completed under churn");
    assert!(
        join.deliveries > 0,
        "a completed ES join heard quorum replies"
    );
    assert!(
        join.phases.iter().any(|p| p.phase == OpPhase::Sent),
        "the join's inquiry send was recorded"
    );
}

/// The timeseries export: golden header, deterministic cadence, and a
/// lossless JSONL round-trip.
#[test]
fn timeseries_jsonl_round_trips_and_matches_golden_header() {
    let report = Scenario::synchronous(5, Span::ticks(2))
        .duration(Span::ticks(20))
        .seed(9)
        .run_observed(ObsConfig {
            spans: false,
            timeseries_every: Some(5),
            flight_recorder: None,
        });
    let obs = report.obs.as_ref().expect("observed run carries a report");
    let ts = obs.timeseries.as_ref().expect("recorder was on");

    let jsonl = ts.to_jsonl();
    let golden_header = format!(
        "{{\"schema\":\"{TIMESERIES_SCHEMA}\",\"every\":5,\"columns\":[\"active\",\"present\",\
         \"joining\",\"inflight\",\"busy_writers\",\"delivered\",\"fault_drops\",\
         \"inquiry_full\",\"delta_overruns\",\"retransmits\"]}}"
    );
    assert_eq!(jsonl.lines().next().unwrap(), golden_header);
    assert_eq!(ts.len(), 5, "ticks 0,5,10,15,20 under every=5");
    assert!(
        ts.column("active").unwrap().iter().all(|&a| a == 5),
        "no churn: the active set never moves"
    );
    assert_eq!(ts.column("fault_drops").unwrap(), &[0, 0, 0, 0, 0]);

    let parsed = Timeseries::parse_jsonl(&jsonl).expect("own output parses");
    assert_eq!(parsed, *ts, "round-trip is lossless");
}

/// A tiny flight-recorder capacity keeps only the newest entries and
/// counts every eviction.
#[test]
fn flight_ring_bounds_retained_trace_and_counts_evictions() {
    let report = Scenario::synchronous(10, Span::ticks(3))
        .churn_rate(0.01)
        .duration(Span::ticks(150))
        .seed(5)
        .run_observed(ObsConfig {
            spans: false,
            timeseries_every: None,
            flight_recorder: Some(64),
        });
    assert_eq!(report.trace.len(), 64, "ring fills to its capacity");
    assert!(
        report.trace.dropped() > 0,
        "a 150-tick run evicts older entries"
    );
    // The retained tail is the run's newest events, still time-ordered.
    let times: Vec<_> = report.trace.entries().map(|e| e.time).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}
