//! Metric names, units, and the result line.

/// End-to-end metrics: every workload reports each of them on an
/// untraced run (see README.md for what each means per workload).
pub const END_TO_END: [(&str, &str); 5] = [
    ("ref_ms_per_cell", "ms"),
    ("fresh_submit_ref_p50_ms", "ms"),
    ("fresh_submit_ref_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every workload reports each of them on a traced
/// run; a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("wall.cells_per_s", "1/s"),
    ("wall.fresh_submit_p50_ms", "ms"),
    ("wall.fresh_submit_p99_ms", "ms"),
    ("host.build_ms", "ms/cell"),
    ("engine.run_ms", "ms/cell"),
    ("engine.us_per_activation", "us"),
    ("engine.activations", "count/cell"),
    ("engine.moves", "count/cell"),
    ("engine.move_yield", "ratio"),
    ("engine.warm_bytes_peak", "bytes"),
    ("engine.br_bytes_peak", "bytes"),
    ("engine.meter_ms", "ms/cell"),
    ("certify.ms", "ms/cell"),
    ("certify.agents", "count/cell"),
    ("certify.us_per_agent", "us"),
    ("social_cost.ms", "ms/cell"),
    ("sssp.runs", "count/cell"),
    ("sssp.us_per_run", "us"),
    ("serialize.ms", "ms/cell"),
    ("serialize.bytes", "bytes/cell"),
    ("sink.ms", "ms/cell"),
    ("pool.busy_frac", "ratio"),
    ("pool.wait_ms", "ms/cell"),
    ("pool.cells_per_s_1t", "1/s"),
    ("client.fresh_ack_p50_ms", "ms"),
    ("client.fresh_first_line_p50_ms", "ms"),
    ("client.repeat_ack_p50_ms", "ms"),
    ("client.repeat_stream_p50_ms", "ms"),
    ("client.repeat_submit_p50_ms", "ms"),
    ("client.repeat_submit_p99_ms", "ms"),
    ("client.ping_p50_us", "us"),
    ("server.cells_simulated", "count"),
    ("server.cells_from_cache", "count"),
    ("cache.hit_ratio", "ratio"),
    ("server.worker_busy_frac", "ratio"),
    ("server.job_wall_p50_us", "us"),
    ("journal.fsyncs", "count"),
    ("journal.fsync_p50_us", "us"),
    ("trace.overhead_pct", "%"),
];

#[cfg(test)]
/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// Outcome accounting: operations attempted and failed, with the reason
/// of every failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (cells offline, submits on daemon-mix).
    pub attempted: u64,
    /// Reasons of the operations that failed.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `err` is `Some`.
    pub fn record(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failures.push(e);
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, err: String) {
        self.failures.push(err);
    }

    /// Adds another tally's counts into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// FNV-1a digest of a byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The digest of each `\n`-separated piece of `bytes` (the piece after
/// the last newline included, so a missing final newline shows).
pub fn line_digests(bytes: &[u8]) -> Vec<u64> {
    bytes.split(|&b| b == b'\n').map(digest).collect()
}

/// Formats the result line: `correct`, `attempted`, `failed`, and each
/// metric of `names` with its value from `values` and its unit.
pub fn result_line(tally: &Tally, names: &[(&str, &str)], values: &[(String, f64)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failures.is_empty() && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failures.len(),
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_use_the_allowed_charset() {
        let all = END_TO_END.iter().chain(PER_LAYER.iter());
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn charset_checks_reject_what_they_must() {
        assert!(valid_name("engine.run_ms"));
        assert!(valid_name("p99-x_1.2"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/not"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("count/cell"));
        assert!(valid_unit("%"));
        assert!(!valid_unit("µs"));
        assert!(!valid_unit(""));
    }

    #[test]
    fn line_digests_tell_lines_apart() {
        let d = line_digests(b"a\nb\n");
        assert_eq!(d.len(), 3);
        assert_eq!(d[0], digest(b"a"));
        assert_ne!(d[0], d[1]);
        assert_eq!(d[2], digest(b""));
        assert_ne!(line_digests(b"a\nb"), d);
    }

    #[test]
    fn result_line_carries_every_metric_in_order() {
        let mut t = Tally::default();
        t.record(None);
        t.record(Some("mismatch".into()));
        let line = result_line(
            &t,
            &[("a", "s"), ("b", "ms")],
            &[("b".into(), 2.5), ("a".into(), 1.0)],
        );
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":{\"a\":{\"value\":1.0,\"unit\":\"s\"},\"b\":{\"value\":2.5,\"unit\":\"ms\"}}}"
        );
        let v = gncg_service::json::parse(&line).unwrap();
        assert_eq!(v.get("failed").and_then(|x| x.as_u64()), Some(1));
    }
}
