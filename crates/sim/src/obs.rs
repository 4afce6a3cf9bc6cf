//! Observability configuration and recorders.
//!
//! Two building blocks shared by every layer above the simulator:
//!
//! * [`ObsConfig`] — the single switch for the whole observability layer.
//!   **Off by default and provably free**: an instrumented-off run consumes
//!   no randomness and perturbs no event ordering, so its event-stream
//!   digest is byte-identical to an uninstrumented build (the same
//!   discipline as `FaultPlan::has_chaos`).
//! * [`Timeseries`] — a columnar per-tick gauge recorder with a stable
//!   JSONL export (`dynareg-timeseries/1`) and a round-trip parser.

/// Master switch for the observability layer.
///
/// Everything defaults to off; [`ObsConfig::off()`] is `Default`. Each
/// knob is independent so experiments pay only for what they read.
///
/// # Example
///
/// ```
/// use dynareg_sim::obs::ObsConfig;
/// assert!(ObsConfig::off().is_off());
/// assert!(!ObsConfig::full().is_off());
/// assert_eq!(ObsConfig::default(), ObsConfig::off());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Record causal operation spans (phase transitions plus the message
    /// sequence ids each op sent/received) and the per-message fate log
    /// that `why_stuck` chains are built from.
    pub spans: bool,
    /// Sample gauges into a [`Timeseries`] every `n` ticks (`None` = off).
    pub timeseries_every: Option<u64>,
    /// Keep a flight recorder: a ring buffer retaining the most recent
    /// `n` trace entries, auto-dumped when a run fails a verdict.
    pub flight_recorder: Option<usize>,
}

impl ObsConfig {
    /// Everything off — the default, and guaranteed digest-neutral.
    pub const fn off() -> ObsConfig {
        ObsConfig {
            spans: false,
            timeseries_every: None,
            flight_recorder: None,
        }
    }

    /// Every recorder on, with debugging-friendly defaults: per-tick
    /// timeseries and a 4096-entry flight recorder.
    pub const fn full() -> ObsConfig {
        ObsConfig {
            spans: true,
            timeseries_every: Some(1),
            flight_recorder: Some(4096),
        }
    }

    /// Whether every recorder is disabled.
    pub const fn is_off(&self) -> bool {
        !self.spans && self.timeseries_every.is_none() && self.flight_recorder.is_none()
    }
}

/// Schema tag written on the first line of every timeseries export.
pub const TIMESERIES_SCHEMA: &str = "dynareg-timeseries/1";

/// Columnar per-tick gauge recorder.
///
/// Rows are appended on a fixed cadence (`every` ticks); each row is the
/// sampled tick plus one `u64` per column. Column names are fixed by the
/// first row and identical for every row after it — the buffer is
/// columnar so a long run costs one `Vec<u64>` per gauge, not one
/// allocation per sample.
///
/// # Export format (`dynareg-timeseries/1`)
///
/// JSONL: a header object, then one object per row.
///
/// ```text
/// {"schema":"dynareg-timeseries/1","every":5,"columns":["active","inflight"]}
/// {"t":0,"v":[20,3]}
/// {"t":5,"v":[21,7]}
/// ```
///
/// # Example
///
/// ```
/// use dynareg_sim::obs::Timeseries;
/// let mut ts = Timeseries::new(5);
/// assert!(ts.due(0) && !ts.due(3) && ts.due(10));
/// ts.push_row(0, &[("active", 20), ("inflight", 3)]);
/// let jsonl = ts.to_jsonl();
/// assert_eq!(Timeseries::parse_jsonl(&jsonl).unwrap(), ts);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeseries {
    every: u64,
    columns: Vec<String>,
    ticks: Vec<u64>,
    /// Column-major sample storage: `values[c][r]` is column `c` at row `r`.
    values: Vec<Vec<u64>>,
}

impl Timeseries {
    /// An empty recorder sampling every `every` ticks (`every == 0` is
    /// treated as 1).
    pub fn new(every: u64) -> Timeseries {
        Timeseries {
            every: every.max(1),
            columns: Vec::new(),
            ticks: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The sampling cadence in ticks.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Whether `tick` is on the sampling cadence.
    pub fn due(&self, tick: u64) -> bool {
        tick.is_multiple_of(self.every)
    }

    /// Appends one row of `(column, value)` gauges sampled at `tick`. The
    /// first row fixes the column set; later rows must present the same
    /// columns in the same order.
    pub fn push_row(&mut self, tick: u64, row: &[(&str, u64)]) {
        if self.columns.is_empty() && self.values.is_empty() {
            self.columns = row.iter().map(|&(name, _)| name.to_string()).collect();
            self.values = vec![Vec::new(); row.len()];
        }
        debug_assert_eq!(self.columns.len(), row.len(), "column set must be stable");
        self.ticks.push(tick);
        for (i, (col, &(name, value))) in self.values.iter_mut().zip(row).enumerate() {
            debug_assert_eq!(self.columns[i], name, "column order must be stable");
            col.push(value);
        }
    }

    /// Column names, in row order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of rows recorded.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// Whether no rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// Iterates rows as `(tick, values)` with `values` in column order.
    pub fn rows(&self) -> impl Iterator<Item = (u64, Vec<u64>)> + '_ {
        self.ticks.iter().enumerate().map(|(r, &t)| {
            let vals = self.values.iter().map(|col| col[r]).collect();
            (t, vals)
        })
    }

    /// The full column for `name`, if recorded.
    pub fn column(&self, name: &str) -> Option<&[u64]> {
        let i = self.columns.iter().position(|c| c == name)?;
        Some(&self.values[i])
    }

    /// Serializes to `dynareg-timeseries/1` JSONL (header line + one line
    /// per row). Deterministic: same recorder, same bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"{TIMESERIES_SCHEMA}\",\"every\":{},\"columns\":[",
            self.every
        ));
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{c}\""));
        }
        out.push_str("]}\n");
        for (t, vals) in self.rows() {
            out.push_str(&format!("{{\"t\":{t},\"v\":["));
            for (i, v) in vals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_string());
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Parses a `dynareg-timeseries/1` JSONL export back into a recorder.
    /// Exists so tests (and external tooling) can round-trip the artifact;
    /// the grammar is exactly what [`Timeseries::to_jsonl`] emits.
    pub fn parse_jsonl(text: &str) -> Result<Timeseries, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty timeseries export")?;
        let expect = |hay: &str, tag: &str| -> Result<(), String> {
            if hay.contains(tag) {
                Ok(())
            } else {
                Err(format!("header missing `{tag}`: {hay}"))
            }
        };
        expect(header, TIMESERIES_SCHEMA)?;
        let every: u64 = field(header, "\"every\":")?
            .parse()
            .map_err(|e| format!("bad `every`: {e}"))?;
        let cols_raw = field(header, "\"columns\":[")?;
        let columns: Vec<String> = if cols_raw.is_empty() {
            Vec::new()
        } else {
            cols_raw
                .split(',')
                .map(|c| c.trim_matches('"').to_string())
                .collect()
        };
        let mut ts = Timeseries {
            every,
            columns: columns.clone(),
            ticks: Vec::new(),
            values: vec![Vec::new(); columns.len()],
        };
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let t: u64 = field(line, "\"t\":")?
                .parse()
                .map_err(|e| format!("row {i}: bad tick: {e}"))?;
            let vals_raw = field(line, "\"v\":[")?;
            let vals: Vec<u64> = if vals_raw.is_empty() {
                Vec::new()
            } else {
                vals_raw
                    .split(',')
                    .map(|v| v.parse().map_err(|e| format!("row {i}: bad value: {e}")))
                    .collect::<Result<_, _>>()?
            };
            if vals.len() != ts.columns.len() {
                return Err(format!(
                    "row {i}: {} values for {} columns",
                    vals.len(),
                    ts.columns.len()
                ));
            }
            ts.ticks.push(t);
            for (col, v) in ts.values.iter_mut().zip(vals) {
                col.push(v);
            }
        }
        Ok(ts)
    }
}

/// Extracts the text after `key` up to the next `]`, `}` or `,` boundary
/// appropriate for the value shape (`[`-prefixed keys read to `]`).
fn field(line: &str, key: &str) -> Result<String, String> {
    let start = line
        .find(key)
        .ok_or_else(|| format!("missing `{key}` in `{line}`"))?
        + key.len();
    let rest = &line[start..];
    let end = if key.ends_with('[') {
        rest.find(']')
            .ok_or_else(|| format!("unterminated `{key}`"))?
    } else {
        rest.find([',', '}'])
            .ok_or_else(|| format!("unterminated `{key}`"))?
    };
    Ok(rest[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_default_and_detects_every_knob() {
        assert_eq!(ObsConfig::default(), ObsConfig::off());
        assert!(ObsConfig::off().is_off());
        for cfg in [
            ObsConfig {
                spans: true,
                ..ObsConfig::off()
            },
            ObsConfig {
                timeseries_every: Some(1),
                ..ObsConfig::off()
            },
            ObsConfig {
                flight_recorder: Some(64),
                ..ObsConfig::off()
            },
        ] {
            assert!(!cfg.is_off(), "{cfg:?} should not read as off");
        }
    }

    #[test]
    fn timeseries_round_trips_through_jsonl() {
        let mut ts = Timeseries::new(5);
        ts.push_row(0, &[("active", 20), ("inflight", 3), ("drops", 0)]);
        ts.push_row(5, &[("active", 21), ("inflight", 7), ("drops", 2)]);
        ts.push_row(10, &[("active", 19), ("inflight", 0), ("drops", 2)]);
        let jsonl = ts.to_jsonl();
        assert!(jsonl.starts_with(&format!("{{\"schema\":\"{TIMESERIES_SCHEMA}\"")));
        assert_eq!(jsonl.lines().count(), 4);
        let back = Timeseries::parse_jsonl(&jsonl).expect("round trip");
        assert_eq!(back, ts);
        assert_eq!(back.column("inflight"), Some(&[3, 7, 0][..]));
        assert_eq!(back.column("nope"), None);
    }

    #[test]
    fn empty_timeseries_round_trips() {
        let ts = Timeseries::new(1);
        let back = Timeseries::parse_jsonl(&ts.to_jsonl()).expect("empty round trip");
        assert_eq!(back, ts);
        assert!(back.is_empty());
    }

    #[test]
    fn cadence_gates_sampling() {
        let ts = Timeseries::new(4);
        assert!(ts.due(0));
        assert!(!ts.due(1) && !ts.due(3));
        assert!(ts.due(8));
        // every == 0 coerces to 1: always due.
        assert!(Timeseries::new(0).due(17));
    }

    #[test]
    fn parse_rejects_malformed_exports() {
        assert!(Timeseries::parse_jsonl("").is_err());
        assert!(Timeseries::parse_jsonl("{\"schema\":\"other/1\"}").is_err());
        let bad_row = format!(
            "{{\"schema\":\"{TIMESERIES_SCHEMA}\",\"every\":1,\"columns\":[\"a\"]}}\n{{\"t\":0,\"v\":[1,2]}}\n"
        );
        assert!(Timeseries::parse_jsonl(&bad_row).is_err());
    }
}
