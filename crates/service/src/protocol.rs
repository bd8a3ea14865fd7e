//! The wire protocol: newline-delimited JSON over TCP.
//!
//! # Framing
//!
//! Every request and every control response is **one JSON object per
//! line**. Control lines always carry an `"ok"` member; the only
//! non-control lines a server ever sends are the raw
//! [`CellResult::to_jsonl`](gncg_suite::scenario::CellResult::to_jsonl)
//! lines inside a `stream` response, which always begin with
//! `{"cell":` — so the two kinds are distinguishable by their first
//! member, and the cell lines are byte-identical to what the offline
//! `gncg grid` command writes to disk.
//!
//! # Requests
//!
//! ```json
//! {"op":"submit","spec":{"name":"g","hosts":["unit"],"ns":[6],"alphas":[1.0],
//!  "rules":["greedy"],"schedulers":["rr"],"seeds":[0],"max_rounds":200,
//!  "base_seed":0,"certify":"full"}}
//! {"op":"status"}
//! {"op":"status","job":1}
//! {"op":"stream","job":1}
//! {"op":"tail","job":1}
//! {"op":"cancel","job":1}
//! {"op":"explore","job":1,"cell":0}
//! {"op":"metrics"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! {"op":"shutdown","drain":true}
//! ```
//!
//! Spec members are the rows of the spec field table
//! ([`ScenarioSpec::fields`]): the manifest's keys, with the same names,
//! the JSON types of the rows' kinds, and the same defaults (the README's
//! spec-key table lists them). Absent members take the defaults
//! ([`ScenarioSpec::default`]), so `{"op":"submit","spec":{}}` is a valid
//! one-cell submission. An unknown member (a misspelled `"horizon"`) or a
//! member of the wrong JSON type (`"horizon_pricing":"true"`) is
//! rejected, so a typo fails the submit instead of silently running the
//! grid without the option. The opt-in members `regret_meter`,
//! `checkpoint_every` and `horizon_pricing` are sent only when
//! non-default, so default submits keep their historical bytes. The job
//! journal stores the same spec object. A submit may additionally carry
//! `"deadline_ms":N` — a wall-clock budget for the whole job, after
//! which the daemon expires it (state `"expired"`, streams receive an
//! error footer). The deadline lives in the *protocol*, not the spec:
//! it does not participate in `cell_digest`
//! (`gncg_suite::scenario::cell_digest`), manifests, or result bytes.
//!
//! `shutdown` with `"drain":true` finishes the active jobs (each still
//! bounded by its own deadline) before exiting, refusing new submits in
//! the meantime; without it the daemon stops after in-flight cells only.
//!
//! # Responses
//!
//! ```json
//! {"ok":true,"job":1,"cells":8}                      // submit
//! {"ok":true,"job":1,"state":"running","done":3,"total":8,
//!  "cache_hits":1,"simulated":2}                     // status (job)
//! {"ok":true,"jobs":4,"active":1,"done":3,"canceled":0,
//!  "cache_entries":96,"cache_hits":40,"cache_misses":96,
//!  "workers":2,"queue_cap":64}                       // status (daemon)
//! {"ok":true,"job":1,"cells":8}                      // stream header,
//!                                                    // then 8 raw cell lines,
//! {"ok":true,"done":true,"cache_hits":8,"simulated":0} // stream footer
//! {"ok":true,"job":1,"state":"canceled"}             // cancel
//! {"ok":true,"job":1,"cell":0,"line":"{\"cell\":0,…}"} // explore
//! {"ok":true,"metrics":{…}}                          // metrics
//! {"ok":true,"pong":true}                            // ping
//! {"ok":true,"shutdown":true}                        // shutdown
//! {"ok":false,"error":"..."}                         // any failure
//! ```
//!
//! `explore` fetches one **finished** cell's result line (the same bytes
//! a `stream` would carry for it) as an escaped string inside a control
//! line — the random-access twin of `stream` that the `gncg explore`
//! checkpoint inspector is built on. `metrics` returns the daemon's
//! runtime metrics registry snapshot ([`crate::metrics`]).
//!
//! `tail` shares `stream`'s framing (header, raw cell lines, footer) but
//! sends each cell line **as soon as it finishes**, in completion order
//! rather than cell order — the op for watching a wide grid land across
//! many workers. Every cell line carries its `"cell"` index, so clients
//! re-sort on receipt; the re-sorted bytes equal a `stream` response's.

use gncg_suite::scenario::{Field, FieldKind, ScenarioSpec};

use crate::json::{escape, parse, Value};

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a scenario grid as a new job.
    Submit {
        /// The grid to run.
        spec: ScenarioSpec,
        /// Optional wall-clock budget for the whole job, in
        /// milliseconds from acceptance; overrunning jobs are expired.
        deadline_ms: Option<u64>,
    },
    /// Job status (`job` set) or daemon-wide status (`job` absent).
    Status {
        /// The job to report on, if any.
        job: Option<u64>,
    },
    /// Stream a job's cell results in cell order.
    Stream {
        /// The job to stream.
        job: u64,
    },
    /// Stream a job's cell results as they finish (completion order; the
    /// client re-sorts by each line's `cell` index).
    Tail {
        /// The job to tail.
        job: u64,
    },
    /// Cancel a job (pending cells are discarded; completed cells stay
    /// cached).
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Fetch one finished cell's result line by (job, cell index).
    Explore {
        /// The job holding the cell.
        job: u64,
        /// The cell index within the job's expansion.
        cell: u64,
    },
    /// Daemon runtime metrics snapshot.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Stop accepting connections and exit once in-flight work settles.
    Shutdown {
        /// With `drain`, finish every active job (bounded by job
        /// deadlines) before exiting instead of dropping the queue; new
        /// submits are refused while draining.
        drain: bool,
    },
}

impl Request {
    /// Parses one request line.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let v = parse(line)?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("request must carry a string \"op\" member")?;
        let job = |required: bool| -> Result<Option<u64>, String> {
            match v.get("job") {
                Some(j) => Ok(Some(j.as_u64().ok_or("\"job\" must be a u64")?)),
                None if required => Err("missing \"job\" member".into()),
                None => Ok(None),
            }
        };
        match op {
            "submit" => {
                let spec = v.get("spec").ok_or("submit requires a \"spec\" member")?;
                let deadline_ms = match v.get("deadline_ms") {
                    Some(d) => Some(d.as_u64().ok_or("\"deadline_ms\" must be a u64")?),
                    None => None,
                };
                Ok(Request::Submit {
                    spec: spec_from_value(spec)?,
                    deadline_ms,
                })
            }
            "status" => Ok(Request::Status { job: job(false)? }),
            "stream" => Ok(Request::Stream {
                job: job(true)?.unwrap(),
            }),
            "tail" => Ok(Request::Tail {
                job: job(true)?.unwrap(),
            }),
            "cancel" => Ok(Request::Cancel {
                job: job(true)?.unwrap(),
            }),
            "explore" => Ok(Request::Explore {
                job: job(true)?.unwrap(),
                cell: v
                    .get("cell")
                    .ok_or("explore requires a \"cell\" member")?
                    .as_u64()
                    .ok_or("\"cell\" must be a u64")?,
            }),
            "metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping),
            "shutdown" => {
                let drain = match v.get("drain") {
                    Some(d) => d.as_bool().ok_or("\"drain\" must be a boolean")?,
                    None => false,
                };
                Ok(Request::Shutdown { drain })
            }
            other => Err(format!("unknown op '{other}'")),
        }
    }

    /// Serializes the request as its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Submit { spec, deadline_ms } => {
                let spec = spec_to_json(spec);
                match deadline_ms {
                    None => format!("{{\"op\":\"submit\",\"spec\":{spec}}}"),
                    Some(ms) => {
                        format!("{{\"op\":\"submit\",\"spec\":{spec},\"deadline_ms\":{ms}}}")
                    }
                }
            }
            Request::Status { job: Some(j) } => format!("{{\"op\":\"status\",\"job\":{j}}}"),
            Request::Status { job: None } => "{\"op\":\"status\"}".into(),
            Request::Stream { job } => format!("{{\"op\":\"stream\",\"job\":{job}}}"),
            Request::Tail { job } => format!("{{\"op\":\"tail\",\"job\":{job}}}"),
            Request::Cancel { job } => format!("{{\"op\":\"cancel\",\"job\":{job}}}"),
            Request::Explore { job, cell } => {
                format!("{{\"op\":\"explore\",\"job\":{job},\"cell\":{cell}}}")
            }
            Request::Metrics => "{\"op\":\"metrics\"}".into(),
            Request::Ping => "{\"op\":\"ping\"}".into(),
            Request::Shutdown { drain: false } => "{\"op\":\"shutdown\"}".into(),
            Request::Shutdown { drain: true } => "{\"op\":\"shutdown\",\"drain\":true}".into(),
        }
    }
}

/// Serializes a spec as the protocol's `"spec"` object: one member per
/// emitted [`ScenarioSpec::fields`] row, in table order (round-trips
/// exactly through [`spec_from_value`]).
pub fn spec_to_json(spec: &ScenarioSpec) -> String {
    let members: Vec<String> = spec
        .fields()
        .iter()
        .filter(|f| f.emit)
        .map(|f| format!("\"{}\":{}", f.key, value_json(f)))
        .collect();
    format!("{{{}}}", members.join(","))
}

/// A field's value as JSON: its tokens, quoted when strings, in an array
/// when the field is a list.
fn value_json(f: &Field) -> String {
    let quote = |t: &String| format!("\"{}\"", escape(t));
    let body = match f.kind {
        FieldKind::Str => f.tokens.iter().map(quote).collect::<Vec<_>>().join(","),
        FieldKind::Num | FieldKind::Bool => f.tokens.join(","),
    };
    if f.list {
        format!("[{body}]")
    } else {
        body
    }
}

/// Builds a [`ScenarioSpec`] from the protocol's `"spec"` object. Absent
/// members keep the [`ScenarioSpec::default`] values; unknown members and
/// members of the wrong JSON type are rejected; the result is validated
/// exactly as the offline pipeline validates it.
pub fn spec_from_value(v: &Value) -> Result<ScenarioSpec, String> {
    let Value::Obj(members) = v else {
        return Err("\"spec\" must be an object".into());
    };
    let mut spec = ScenarioSpec::default();
    for (key, value) in members {
        let row = ScenarioSpec::default_field(key)?;
        spec.set_field(key, &wire_tokens(row, value)?)?;
    }
    spec.validate()?;
    Ok(spec)
}

/// The text tokens of a member value of field `row`, or an error naming
/// the row's JSON shape (its default value) when the value has another:
/// a `"true"` string is not a boolean, and a bare number is not an array.
fn wire_tokens<'a>(row: &Field, value: &'a Value) -> Result<Vec<&'a str>, String> {
    let token = |x: &'a Value| match (row.kind, x) {
        (FieldKind::Str, Value::Str(t)) | (FieldKind::Num, Value::Num(t)) => Some(t.as_str()),
        (FieldKind::Bool, Value::Bool(b)) => Some(if *b { "true" } else { "false" }),
        _ => None,
    };
    let tokens = match (row.list, value) {
        (true, Value::Arr(items)) => items.iter().map(token).collect(),
        (false, x) => token(x).map(|t| vec![t]),
        (true, _) => None,
    };
    tokens.ok_or_else(|| {
        format!(
            "\"{}\" must be JSON shaped like {}",
            row.key,
            value_json(row)
        )
    })
}

/// Builds the standard error line.
pub fn error_line(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", escape(msg))
}

/// Whether a received line is a control line (vs a raw streamed cell
/// line). Control lines lead with the `"ok"` member; cell lines lead
/// with `"cell"`.
pub fn is_control_line(line: &str) -> bool {
    line.starts_with("{\"ok\":")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_suite::scenario::{CertifyMode, RuleSpec, SchedSpec};

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "wire \"quoted\"\nname".into(),
            hosts: vec!["unit".into(), "onetwo".into()],
            ns: vec![5, 7],
            alphas: vec![0.5, 2.25],
            rules: vec![RuleSpec::Greedy, RuleSpec::Br],
            schedulers: vec![SchedSpec::RoundRobin, SchedSpec::MaxGain],
            seeds: vec![0, u64::MAX],
            max_rounds: 250,
            base_seed: 17,
            certify: CertifyMode::Sampled,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn submit_round_trips_exactly() {
        let s = spec();
        // Name with quotes/newline: manifest would reject it, so use a
        // manifest-legal name for the validated round trip…
        let mut legal = s.clone();
        legal.name = "wire name".into();
        for deadline_ms in [None, Some(1500u64), Some(u64::MAX)] {
            let line = Request::Submit {
                spec: legal.clone(),
                deadline_ms,
            }
            .to_line();
            match Request::parse_line(&line).unwrap() {
                Request::Submit {
                    spec: back,
                    deadline_ms: back_deadline,
                } => {
                    assert_eq!(back, legal);
                    assert_eq!(back_deadline, deadline_ms);
                }
                other => panic!("wrong request {other:?}"),
            }
        }
        // …and check raw escaping survives parse → spec (validation
        // rejects the newline, which is itself the right behavior).
        let raw = Request::Submit {
            spec: s,
            deadline_ms: None,
        }
        .to_line();
        assert!(Request::parse_line(&raw).is_err(), "newline names invalid");
    }

    #[test]
    fn sparse_spec_takes_defaults() {
        let line = r#"{"op":"submit","spec":{"hosts":["unit"],"ns":[4]}}"#;
        match Request::parse_line(line).unwrap() {
            Request::Submit {
                spec,
                deadline_ms: None,
            } => {
                assert_eq!(spec.hosts, vec!["unit".to_string()]);
                assert_eq!(spec.ns, vec![4]);
                let d = ScenarioSpec::default();
                assert_eq!(spec.alphas, d.alphas);
                assert_eq!(spec.max_rounds, d.max_rounds);
                assert_eq!(spec.certify, d.certify);
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [
            Request::Status { job: None },
            Request::Status { job: Some(3) },
            Request::Stream { job: 9 },
            Request::Tail { job: 9 },
            Request::Cancel { job: u64::MAX },
            Request::Explore { job: 2, cell: 17 },
            Request::Metrics,
            Request::Ping,
            Request::Shutdown { drain: false },
            Request::Shutdown { drain: true },
        ] {
            assert_eq!(Request::parse_line(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn invalid_requests_are_rejected() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"stream"}"#,
            r#"{"op":"tail"}"#,
            r#"{"op":"cancel","job":"one"}"#,
            r#"{"op":"explore"}"#,
            r#"{"op":"explore","job":1}"#,
            r#"{"op":"explore","job":1,"cell":"zero"}"#,
            r#"{"op":"submit"}"#,
            r#"{"op":"submit","spec":{"hosts":["bogus-factory"]}}"#,
            r#"{"op":"submit","spec":{"ns":[0]}}"#,
            r#"{"op":"submit","spec":{"alphas":[]}}"#,
            // Misspelled members must not be silently ignored.
            r#"{"op":"submit","spec":{"hosts":["unit"],"ns":[4],"horizon":true}}"#,
            r#"{"op":"submit","spec":{"hosts":["unit"],"ns":[4],"regret-meter":true}}"#,
            // Members of the wrong JSON type are rejected, not coerced.
            r#"{"op":"submit","spec":{"horizon_pricing":"true"}}"#,
            r#"{"op":"submit","spec":{"max_rounds":"5"}}"#,
            r#"{"op":"submit","spec":{"ns":4}}"#,
            r#"{"op":"submit","spec":{"name":["g"]}}"#,
            r#"{"op":"submit","spec":{},"deadline_ms":"soon"}"#,
            r#"{"op":"submit","spec":{},"deadline_ms":-5}"#,
            r#"{"op":"shutdown","drain":"yes"}"#,
        ] {
            assert!(Request::parse_line(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn observability_members_round_trip_and_stay_off_the_default_wire() {
        // Default (meter-off) specs keep their historical wire bytes.
        let off = spec_to_json(&ScenarioSpec::default());
        assert!(!off.contains("regret_meter"));
        assert!(!off.contains("checkpoint_every"));
        assert!(!off.contains("horizon_pricing"));
        // Meter-on specs round-trip through submit exactly.
        let mut on = spec();
        on.name = "wire name".into();
        on.regret_meter = true;
        on.checkpoint_every = 25;
        on.horizon_pricing = true;
        let line = Request::Submit {
            spec: on.clone(),
            deadline_ms: None,
        }
        .to_line();
        match Request::parse_line(&line).unwrap() {
            Request::Submit { spec: back, .. } => assert_eq!(back, on),
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn horizon_pricing_rides_the_wire_without_observability() {
        // Regression: a horizon-on spec with the observability members
        // off must still carry the flag, or the daemon silently prices
        // the whole grid under full sums.
        let mut on = spec();
        on.name = "wire name".into();
        on.horizon_pricing = true;
        assert!(!on.observability_on());
        assert!(spec_to_json(&on).contains("\"horizon_pricing\":true"));
        let line = Request::Submit {
            spec: on.clone(),
            deadline_ms: None,
        }
        .to_line();
        match Request::parse_line(&line).unwrap() {
            Request::Submit { spec: back, .. } => assert_eq!(back, on),
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn control_lines_are_distinguishable_from_cell_lines() {
        assert!(is_control_line(&error_line("boom")));
        assert!(is_control_line("{\"ok\":true,\"job\":1}"));
        assert!(!is_control_line("{\"cell\":0,\"host\":\"unit\"}"));
    }
}
