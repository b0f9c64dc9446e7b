//! The metric names and units the benchmark reports. `BENCHMARK.json`
//! lists the same names; a test holds the two together.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports each of them from the
/// untraced pass.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, reported by the traced pass. A metric that the
/// workload of the run does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // megaflow-200k
    ("simnet.step_boundary_p50_us", "us"),
    ("simnet.step_boundary_p95_us", "us"),
    ("simnet.ns_per_flow_boundary", "ns"),
    ("simnet.start_flow_ns", "ns"),
    ("simnet.topology_build_ms", "ms"),
    ("simnet.boundaries", "count"),
    ("simnet.full_solves", "count"),
    ("simnet.incremental_solves", "count"),
    ("simnet.component_solves", "count"),
    ("simnet.allocs_per_boundary", "count"),
    ("simnet.alloc_bytes_per_boundary", "B"),
    // every traced run (micro-benchmarks)
    ("simnet.max_min_rates_4f_ns", "ns"),
    ("simnet.max_min_rates_32f_ns", "ns"),
    ("simnet.max_min_rates_1024f_ns", "ns"),
    ("simnet.event_queue_push_pop_ns", "ns"),
    ("simnet.regime_materialise_10h_us", "us"),
    ("simnet.probe_race_2MB_us", "us"),
    ("tcp.transfer_time_2MB_ns", "ns"),
    ("tcp.cap_steady_rate_ns", "ns"),
    ("workload.build_planetlab_us", "us"),
    ("stats.summary_10k_us", "us"),
    ("stats.histogram_10k_us", "us"),
    ("http.encode_request_ns", "ns"),
    ("http.parse_request_ns", "ns"),
    ("http.parse_response_ns", "ns"),
    ("http.range_parse_ns", "ns"),
    ("http.reassembly_insert_MBps", "MB/s"),
    ("relay.shaper_take_ns", "ns"),
    // sweep-quick
    ("core.session_us", "us"),
    ("core.sessions", "count"),
    ("experiments.study.measurement_ms", "ms"),
    ("experiments.study.selection_ms", "ms"),
    ("experiments.study.sites_ms", "ms"),
    ("experiments.study.headroom_ms", "ms"),
    ("experiments.study.faults_ms", "ms"),
    ("experiments.study.striping_ms", "ms"),
    ("experiments.study.tournament_ms", "ms"),
    ("experiments.codec_encode_MBps", "MB/s"),
    ("experiments.codec_decode_MBps", "MB/s"),
    ("experiments.codec_bytes", "B"),
    ("experiments.render_ms", "ms"),
    ("artifact.warm_sweep_ms", "ms"),
    ("artifact.warm_hit_rate", "ratio"),
    ("artifact.cache_bytes", "B"),
    ("telemetry.on_off_wall_ratio", "ratio"),
    // relay-small
    ("relay.connect_p50_us", "us"),
    ("relay.connect_p95_us", "us"),
    ("relay.ttfb_p50_us", "us"),
    ("relay.ttfb_p95_us", "us"),
    ("relay.origin_ttfb_p50_us", "us"),
    ("relay.origin_ttfb_p95_us", "us"),
    ("relay.probe_race_us", "us"),
    ("relay.fetch_p99_ms", "ms"),
    // relay-bulk
    ("relay.splice_MBps", "MB/s"),
    ("relay.direct_MBps", "MB/s"),
    ("relay.bulk_tax_ratio", "ratio"),
    ("relay.client_overhead_ratio", "ratio"),
    // every socket workload
    ("relay.accepted", "count"),
    ("relay.backpressure_drops", "count"),
    ("relay.drain_ms", "ms"),
    // stripe-shaped
    ("stripe.efficiency", "ratio"),
    ("stripe.vs_raced_ratio", "ratio"),
    ("stripe.raced_goodput_MBps", "MB/s"),
    ("stripe.chunks_direct", "count"),
    ("stripe.chunks_relay0", "count"),
    ("stripe.chunks_relay1", "count"),
    // every workload
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_MiB", "MiB"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.root_coverage_min", "ratio"),
];

/// The per-layer values of one traced run.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// # Panics
    ///
    /// Panics on a name that [`PER_LAYER`] does not list: the tables,
    /// not the call sites, define what is reported.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(v) => *v = value,
            None => panic!("{name} is not a per-layer metric"),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
