//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of the table its mode prints; the
//! tables here are the single list `BENCHMARK.json` mirrors (a test keeps
//! the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("windows_per_s", "1/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_tail", "ms"),
    ("goodput_mbps", "Mbit/s"),
    ("cpu_us_per_datagram", "us"),
    ("mean_clf", "frames"),
    ("residual_loss_share", "share"),
    ("windows_clf_ok_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, printed by a traced run. A layer a
/// workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.spread_cache.miss_ratio", "ratio"),
    ("core.layered_cache.miss_ratio", "ratio"),
    ("core.layered_build.ns_mean", "ns"),
    ("core.calculate_permutation.ns_mean", "ns"),
    ("protocol.plan.ns_per_window", "ns"),
    ("protocol.send.ns_per_window", "ns"),
    ("protocol.feedback.ns_per_window", "ns"),
    ("protocol.finalize.ns_per_window", "ns"),
    ("sim.self.ns_per_window", "ns"),
    ("trace.source_build_s", "s"),
    ("net.demux.busy_share", "share"),
    ("net.server.decode_errors", "count"),
    ("net.shard.busy_share", "share"),
    ("net.server.datagrams_tx_per_window", "count"),
    ("net.server.useful_tx_ratio", "ratio"),
    ("net.server.retries_per_window", "count"),
    ("net.server.retransmissions_per_window", "count"),
    ("net.stage.queued_to_sent_us_p50", "us"),
    ("net.stage.windowend_to_ack_us_p50", "us"),
    ("net.stage.windowend_to_ack_us_p99", "us"),
    ("net.proxy.busy_share", "share"),
    ("net.stage.proxy_hop_us_p50", "us"),
    ("net.client.busy_share", "share"),
    ("net.stage.deliver_to_close_us_p50", "us"),
    ("net.client.nacks_per_window", "count"),
    ("net.client.hello_retries", "count"),
    ("net.client.handshake_ms_p50", "ms"),
    ("net.fec.recovered_ratio", "ratio"),
    ("net.fec.parity_overhead", "ratio"),
    ("qos.clf_breach_share", "share"),
    ("obs.dropped_events", "count"),
    ("trace.overhead_share", "share"),
];

/// Measured values of one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name in neither table, or one recorded twice — both
    /// are bugs in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        assert!(self.0.insert(name, value).is_none(), "{name} set twice");
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: exactly the metrics of `table`, in table order.
///
/// # Errors
///
/// Names a metric of `table` that was never recorded or is not finite.
pub fn result_line(
    table: &[(&str, &str)],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, &(name, unit)) in table.iter().enumerate() {
        let value = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` keeps every digit and always prints a decimal point.
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Most end-to-end metrics a result may carry.
    const MAX_END_TO_END: usize = 16;
    /// Most per-layer metrics a result may carry.
    const MAX_PER_LAYER: usize = 128;

    /// Whether `name` is a well-formed metric name: `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn catalogue_passes_its_own_rules() {
        assert!(END_TO_END.len() <= MAX_END_TO_END);
        assert!(PER_LAYER.len() <= MAX_PER_LAYER);
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "malformed metric name {name:?}");
            assert!(seen.insert(name), "repeated metric name {name:?}");
            assert!(
                !unit.is_empty() && unit.len() <= 16,
                "{name} has unit {unit:?}"
            );
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("net.stage.proxy_hop_us_p50"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/ed"));
        assert!(!valid_name("ünï"));
    }

    #[test]
    fn benchmark_manifest_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let listed = |section: &str| -> Vec<String> {
            let start = manifest.find(&format!("\"{section}\"")).expect(section);
            let body = &manifest[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let names = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|&(n, _)| n.to_string()).collect()
        };
        assert_eq!(listed("end_to_end"), names(END_TO_END));
        assert_eq!(listed("per_layer"), names(PER_LAYER));
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn result_line_shape() {
        let table = &[("a", "s"), ("b", "ms")];
        let mut v = Values::default();
        v.0.insert("a", 1.0);
        assert!(result_line(table, &v, true, 1, 0).is_err());
        v.0.insert("b", 0.25);
        let line = result_line(table, &v, true, 3, 1).expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 0.25, \"unit\": \"ms\"}}}"
        );
        v.0.insert("a", f64::NAN);
        assert!(result_line(table, &v, true, 3, 1).is_err());
    }
}
