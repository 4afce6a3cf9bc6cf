//! Property tests for the scenario-file round-trip guarantee:
//! `parse(write(spec)) == spec` over the full serializable spec space —
//! every protocol, network class, churn model, selector, and fault block
//! (delay rules, partitions over every `NodeSet` shape, probabilistic
//! drops, region matrices), with awkward floats from the raw unit stream.

use dynareg_churn::LeaveSelector;
use dynareg_net::{DelayFault, DropRule, FaultAction, FaultPlan, NodeSet, Partition, RegionMatrix};
use dynareg_sim::{DetRng, NodeId, Span, Time};
use dynareg_testkit::{
    parse_scenario, scenario_hash, write_scenario, ChurnChoice, NetClass, ProtocolChoice,
    ScenarioSpec,
};
use proptest::prelude::*;

fn arb_time(rng: &mut DetRng) -> Time {
    if rng.chance(0.1) {
        Time::MAX
    } else {
        Time::at(rng.pick(1000))
    }
}

fn arb_node(rng: &mut DetRng) -> Option<NodeId> {
    if rng.chance(0.5) {
        None
    } else {
        Some(NodeId::from_raw(rng.pick(64)))
    }
}

fn arb_node_set(rng: &mut DetRng) -> NodeSet {
    match rng.pick(3) {
        0 => NodeSet::Modulo {
            modulo: 1 + rng.pick(8),
            residue: rng.pick(8),
        },
        1 => NodeSet::FirstRaw(rng.pick(40)),
        _ => NodeSet::Ids(
            (0..1 + rng.pick(5))
                .map(|_| NodeId::from_raw(rng.pick(64)))
                .collect(),
        ),
    }
}

/// An ordered fault window, `t0 ≤ t1`: the format rejects inverted ones.
fn arb_window(rng: &mut DetRng) -> (Time, Time) {
    let (a, b) = (arb_time(rng), arb_time(rng));
    (a.min(b), a.max(b))
}

fn arb_plan(rng: &mut DetRng) -> FaultPlan {
    let mut plan = FaultPlan::default();
    for _ in 0..rng.pick(3) {
        let span = Span::ticks(1 + rng.pick(20));
        let (from_time, until_time) = arb_window(rng);
        plan.push(DelayFault {
            from: arb_node(rng),
            to: arb_node(rng),
            from_time,
            until_time,
            action: if rng.chance(0.5) {
                FaultAction::AddDelay(span)
            } else {
                FaultAction::SetDelay(span)
            },
        });
    }
    for _ in 0..rng.pick(3) {
        let (from_time, until_time) = arb_window(rng);
        plan.push_partition(Partition::new(arb_node_set(rng), from_time, until_time));
    }
    for _ in 0..rng.pick(3) {
        let (from_time, until_time) = arb_window(rng);
        plan.push_drop(DropRule {
            from: arb_node(rng),
            to: arb_node(rng),
            from_time,
            until_time,
            probability: rng.unit(),
        });
    }
    if rng.chance(0.5) {
        let regions = 1 + rng.pick(4) as u32;
        let mut matrix = RegionMatrix::new(regions);
        for a in 0..regions {
            for b in 0..regions {
                if rng.chance(0.3) {
                    matrix.set(a, b, Span::ticks(1 + rng.pick(12)));
                }
            }
        }
        plan.set_region(Some(matrix));
    }
    plan
}

fn arb_churn(rng: &mut DetRng) -> ChurnChoice {
    match rng.pick(7) {
        0 => ChurnChoice::None,
        1 => ChurnChoice::Constant(rng.unit()),
        2 => ChurnChoice::Poisson(rng.unit()),
        3 => ChurnChoice::Burst {
            on: rng.unit(),
            on_ticks: 1 + rng.pick(50),
            off: rng.unit(),
            off_ticks: 1 + rng.pick(200),
        },
        4 => {
            let a = rng.unit();
            let b = rng.unit();
            ChurnChoice::Diurnal {
                peak: a.max(b),
                trough: a.min(b),
                period: 1 + rng.pick(500),
            }
        }
        5 => ChurnChoice::Sessions {
            alpha: 0.5 + rng.unit() * 3.0,
            min_ticks: 1 + rng.pick(100),
        },
        _ => {
            let wave_ticks = 1 + rng.pick(10);
            ChurnChoice::FlashCrowd {
                base: rng.unit(),
                wave_at: rng.pick(300),
                wave_every: if rng.chance(0.3) {
                    0
                } else {
                    wave_ticks + rng.pick(100)
                },
                wave_joins: rng.pick(12) as u32,
                wave_ticks,
            }
        }
    }
}

fn arb_spec(seed: u64) -> ScenarioSpec {
    let mut rng = DetRng::seed(seed);
    let rng = &mut rng;
    ScenarioSpec {
        protocol: match rng.pick(4) {
            0 => ProtocolChoice::Synchronous,
            1 => ProtocolChoice::SynchronousNoWait,
            2 => ProtocolChoice::EventuallySynchronous,
            _ => ProtocolChoice::EsAtomic,
        },
        net: match rng.pick(4) {
            0 => NetClass::Synchronous,
            1 => NetClass::SynchronousWorstCase,
            2 => NetClass::EventuallySynchronous { gst: arb_time(rng) },
            _ => NetClass::FullyAsynchronous {
                cap_factor: 1 + rng.pick(10),
            },
        },
        n: 1 + rng.pick(100) as usize,
        delta: Span::ticks(1 + rng.pick(12)),
        churn: arb_churn(rng),
        selector: match rng.pick(4) {
            0 => LeaveSelector::Random,
            1 => LeaveSelector::OldestFirst,
            2 => LeaveSelector::NewestFirst,
            _ => LeaveSelector::ActiveFirst,
        },
        duration: Span::ticks(rng.pick(2000)),
        drain: rng.chance(0.5).then(|| Span::ticks(rng.pick(100))),
        seed: rng.pick(u64::MAX),
        write_every: rng.chance(0.5).then(|| Span::ticks(1 + rng.pick(30))),
        write_quiesce: rng.chance(0.5).then(|| Span::ticks(rng.pick(60))),
        reads_per_tick: rng.unit() * 4.0,
        writer_churns: rng.chance(0.5),
        migrating_writer: rng.chance(0.5),
        trace: rng.chance(0.2),
        script: None,
        // An empty plan has no file representation (it writes as nothing
        // and parses back as `None`), so only non-empty plans round-trip.
        faults: rng
            .chance(0.6)
            .then(|| arb_plan(rng))
            .filter(|p| !p.is_empty()),
        keys: 1 + rng.pick(16) as u32,
        zipf_exponent: rng.unit() * 2.0,
        shards: 1 + rng.pick(8) as u32,
        writers: 1 + rng.pick(5) as usize,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(write(spec)) == spec`, and the canonical text is a fixed
    /// point — writing the reparsed spec reproduces it byte for byte.
    #[test]
    fn write_parse_round_trips(seed in 0u64..1_000_000_000) {
        let spec = arb_spec(seed);
        let text = write_scenario(&spec).expect("scriptless specs serialize");
        let parsed = match parse_scenario(&text) {
            Ok(parsed) => parsed,
            Err(e) => return Err(TestCaseError::fail(format!("{e}\n--- text ---\n{text}"))),
        };
        prop_assert_eq!(&parsed, &spec, "round-trip changed the spec:\n{}", text);
        prop_assert_eq!(write_scenario(&parsed).unwrap(), text);
    }

    /// The scenario hash separates content from seed and is stable.
    #[test]
    fn hash_is_stable_and_sensitive(seed in 0u64..1_000_000_000) {
        let spec = arb_spec(seed);
        let text = write_scenario(&spec).unwrap();
        let h = scenario_hash(&text, spec.seed);
        prop_assert_eq!(h, scenario_hash(&text, spec.seed));
        prop_assert_ne!(h, scenario_hash(&text, spec.seed.wrapping_add(1)));
        let mut altered = text.clone();
        altered.push('\n');
        prop_assert_ne!(h, scenario_hash(&altered, spec.seed));
    }
}
