//! The benchmark's metric names, units and bounds — the same list
//! `BENCHMARK.json` carries (a unit test keeps the two in step) — and the
//! value table a run fills in.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
    /// A count that must repeat exactly for a given seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these (the per-workload definitions are in `README.md`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("op_p50_us", "us", "lower", 0.25),
    e2e("op_tail_us", "us", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("wire_bytes_per_op", "bytes", "lower", 0.08),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
];

/// Single layers, and the workload-specific names of the end-to-end
/// figures (0 on a workload that does not produce them).
pub const PER_LAYER: &[MetricDef] = &[
    // The issue's workload-specific end-to-end names, from untraced
    // repetitions of the traced run.
    layer("status_rtt_p50_us", "us", "lower"),
    layer("status_rtt_p99_us", "us", "lower"),
    layer("status_rps", "1/s", "higher"),
    layer("flight_p50_us", "us", "lower"),
    layer("sync_round_p50_ms", "ms", "lower"),
    layer("revocation_visible_p50_ms", "ms", "lower"),
    layer("handshake_p50_us", "us", "lower"),
    layer("handshake_p99_us", "us", "lower"),
    layer("handshakes_per_s", "1/s", "higher"),
    layer("ra_capacity_hps", "1/s", "higher"),
    layer("revocations_per_s", "1/s", "higher"),
    count("dissem_bytes_per_revocation", "bytes", "lower"),
    layer("failed_share", "ratio", "lower"),
    // ritm-rt
    layer("rt.socket_residual_us", "us", "lower"),
    layer("rt.stall_share", "ratio", "lower"),
    layer("rt.cpu_us_per_request", "us", "lower"),
    layer("rt.ctx_switches_per_request", "count", "lower"),
    layer("rt.codec_read_ns", "ns", "lower"),
    layer("rt.codec_write_ns", "ns", "lower"),
    // ritm-proto
    layer("proto.encode_request_ns", "ns", "lower"),
    layer("proto.decode_response_ns", "ns", "lower"),
    count("proto.status_frame_bytes", "bytes", "lower"),
    layer("proto.delta_encode_us", "us", "lower"),
    layer("proto.delta_decode_us", "us", "lower"),
    // ritm-agent
    layer("agent.serve_hit_ns", "ns", "lower"),
    layer("agent.serve_miss_ns", "ns", "lower"),
    layer("agent.serve_share", "ratio", "lower"),
    layer("agent.publish_us", "us", "lower"),
    layer("agent.sync_apply_us", "us", "lower"),
    count("agent.sync_flights_per_round", "count", "lower"),
    count("agent.catchup_pages", "count", "lower"),
    layer("agent.intercept_us_per_handshake", "us", "lower"),
    layer("agent.intercept_ns_per_segment", "ns", "lower"),
    layer("agent.fastpath_ns_per_pkt", "ns", "lower"),
    count("agent.staples", "count", "higher"),
    count("agent.resets", "count", "higher"),
    count("agent.fastpath_share", "ratio", "higher"),
    // ritm-tls
    layer("tls.client_feed_us", "us", "lower"),
    layer("tls.server_feed_us", "us", "lower"),
    count("tls.handshake_bytes_base", "bytes", "lower"),
    count("tls.handshake_bytes_added", "bytes", "lower"),
    // ritm-client
    layer("client.validate_us", "us", "lower"),
    // ritm-crypto
    layer("crypto.sign_us", "us", "lower"),
    layer("crypto.verify_us", "us", "lower"),
    layer("crypto.hashchain_ns", "ns", "lower"),
    // ritm-dictionary
    layer("dictionary.prove_presence_ns", "ns", "lower"),
    layer("dictionary.prove_absence_ns", "ns", "lower"),
    layer("dictionary.mirror_apply_us_per_rev", "us", "lower"),
    layer("dictionary.snapshot_publish_us", "us", "lower"),
    // ritm-ca
    layer("ca.revoke_us", "us", "lower"),
    layer("ca.refresh_us", "us", "lower"),
    layer("ca.wal_append_us", "us", "lower"),
    // ritm-cdn
    layer("cdn.edge_serve_us", "us", "lower"),
    // the benchmark itself
    layer("bench.trace_overhead", "ratio", "lower"),
];

pub fn find(defs: &'static [MetricDef], name: &str) -> Option<&'static MetricDef> {
    defs.iter().find(|d| d.name == name)
}

/// The values one run measured, by metric name, with the number of
/// samples behind each.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, (f64, usize)>);

impl Values {
    /// Records `value`, backed by `samples` samples. The name must be one
    /// of the defined metrics.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            find(END_TO_END, name).is_some() || find(PER_LAYER, name).is_some(),
            "undefined metric {name}"
        );
        self.0.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn samples(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, |(_, n)| *n)
    }
}

/// Renders `value` for the result line: plain decimal, every digit the
/// measurement has, never exponent notation.
pub fn number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        let s = format!("{value:.9}");
        s.trim_end_matches('0').to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "lower" || d.better == "higher");
            assert!(d.bound <= 0.25);
        }
        assert!(find(END_TO_END, "setup_s").is_some_and(|d| d.unit == "s" && d.better == "lower"));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` (at the repository root, outside this package) must
    /// name exactly these metrics. Skipped when the file is not there —
    /// the package is also built in checkouts that hold only `benchmark/`.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, d.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::ALL.len(),
            "BENCHMARK.json names something this table does not"
        );
    }

    #[test]
    fn numbers_keep_their_digits_without_exponents() {
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(0.000_012_345), "0.000012345");
        assert_eq!(number(1234.5678), "1234.5678");
        assert_eq!(number(0.0), "0.0");
    }
}
