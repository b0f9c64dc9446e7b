//! Cache codecs for study outputs.
//!
//! Every cached record declares its fields once, next to its type
//! (`ir_artifact::declare!`), and gets a total byte encoding from that
//! list: [`ir_artifact::codec::decode`] returns `None` on any
//! malformation — the sweep scheduler treats that exactly like a
//! corrupt cache entry and recomputes. The layout version is part of
//! every study fingerprint (see [`crate::sweep::CODEC_VERSION`]), so
//! changing an encoding automatically retires incompatible cache
//! entries instead of misreading them; `tests::layouts_are_pinned`
//! holds the bytes of every record to what is already on disk.

use crate::runner::{MeasurementData, SelectionData};
use ir_artifact::codec::{decode, encode};

/// Encodes a [`MeasurementData`] for the study cache.
pub fn encode_measurement(d: &MeasurementData) -> Vec<u8> {
    encode(d)
}

/// Decodes a [`MeasurementData`]; `None` on any malformation.
pub fn decode_measurement(bytes: &[u8]) -> Option<MeasurementData> {
    decode(bytes)
}

/// Encodes a [`SelectionData`] for the study cache.
pub fn encode_selection(d: &SelectionData) -> Vec<u8> {
    encode(d)
}

/// Decodes a [`SelectionData`]; `None` on any malformation.
pub fn decode_selection(bytes: &[u8]) -> Option<SelectionData> {
    decode(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultCell;
    use crate::headroom::Headroom;
    use crate::runner::{run_measurement_study, run_selection_study, PairRun, SelectionRun};
    use crate::sites::SiteResult;
    use crate::striping::StripeCell;
    use crate::tournament::TournamentCell;
    use ir_core::{PathSpec, SessionConfig, TransferRecord};
    use ir_simnet::time::SimTime;
    use ir_simnet::topology::NodeId;
    use ir_workload::{Category, ClientProfile, Schedule, Variability};
    use std::any::Any;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn tiny_scenario() -> ir_workload::Scenario {
        ir_workload::build(
            9,
            &ir_workload::roster::CLIENTS[..2],
            &ir_workload::roster::INTERMEDIATES[..2],
            &ir_workload::roster::SERVERS[..1],
            ir_workload::Calibration::default(),
            false,
        )
    }

    /// FNV-128 of an encoding, as the hex the constants below hold.
    fn digest(bytes: &[u8]) -> String {
        let mut h = ir_artifact::StableHasher::new();
        h.write(bytes);
        h.finish().to_hex()
    }

    fn sample_record(selected: PathSpec, candidates: &[u32], flag: bool) -> TransferRecord {
        TransferRecord {
            client: selected.client,
            server: selected.server,
            started: SimTime(1_234_567),
            file_bytes: 2_000_000,
            selected,
            candidates: candidates.iter().map(|&n| NodeId(n)).collect(),
            direct_throughput: 101_000.5,
            selected_throughput: 187_250.25,
            probe_throughput: 230_000.0,
            selected_path_rate: if flag { f64::NAN } else { 175_000.75 },
            probe_timeout: flag,
            failovers: 2,
            stall_ms: 812,
            abandoned: !flag,
        }
    }

    /// One record per hop count 0..=3, so the path layout is covered.
    fn sample_records() -> Vec<TransferRecord> {
        let (c, s) = (NodeId(0), NodeId(9));
        vec![
            sample_record(PathSpec::direct(c, s), &[], true),
            sample_record(PathSpec::indirect(c, s, NodeId(4)), &[4, 5], false),
            sample_record(
                PathSpec::chain(c, s, &[NodeId(5), NodeId(4)]),
                &[4, 5, 6],
                true,
            ),
            sample_record(
                PathSpec::chain(c, s, &[NodeId(6), NodeId(4), NodeId(5)]),
                &[6],
                false,
            ),
        ]
    }

    fn sample_names() -> BTreeMap<NodeId, String> {
        [(0, "Duke"), (4, "Berkeley"), (9, "eBay")]
            .into_iter()
            .map(|(n, name)| (NodeId(n), name.to_string()))
            .collect()
    }

    /// A fixed hand-built output per study name (the part of a
    /// [`crate::sweep`] study name before `(` or `/`).
    fn sample_output(study: &str) -> Arc<dyn Any + Send + Sync> {
        match study {
            "measurement" => Arc::new(MeasurementData {
                names: sample_names(),
                profiles: [
                    (Category::Low, Variability::Stable),
                    (Category::Medium, Variability::Variable),
                    (Category::High, Variability::Stable),
                ]
                .into_iter()
                .enumerate()
                .map(|(i, (category, variability))| {
                    let base_rate = 93_750.0 * (i + 1) as f64;
                    let profile = ClientProfile {
                        category,
                        variability,
                        base_rate,
                    };
                    (NodeId(i as u32), profile)
                })
                .collect(),
                clients: vec![NodeId(0), NodeId(1), NodeId(2)],
                relays: vec![NodeId(4), NodeId(5), NodeId(6)],
                server: NodeId(9),
                pairs: vec![
                    PairRun {
                        client: NodeId(0),
                        via: NodeId(4),
                        server: NodeId(9),
                        records: sample_records(),
                    },
                    PairRun {
                        client: NodeId(1),
                        via: NodeId(5),
                        server: NodeId(9),
                        records: Vec::new(),
                    },
                ],
            }),
            "selection" => Arc::new(SelectionData {
                names: sample_names(),
                clients: vec![NodeId(0)],
                relays: vec![NodeId(4), NodeId(5), NodeId(6)],
                runs: vec![
                    SelectionRun {
                        client: NodeId(0),
                        k: 3,
                        records: sample_records(),
                    },
                    SelectionRun {
                        client: NodeId(0),
                        k: 35,
                        records: Vec::new(),
                    },
                ],
            }),
            "sites" => Arc::new(vec![
                SiteResult {
                    site: "eBay".into(),
                    mean_improvement_pct: 42.5,
                    chose_indirect_pct: f64::NAN,
                    n: 9,
                },
                SiteResult {
                    site: "Yahoo".into(),
                    mean_improvement_pct: -3.25,
                    chose_indirect_pct: 61.0,
                    n: 0,
                },
            ]),
            "headroom" => Arc::new(vec![Headroom {
                client: "Duke".into(),
                oracle_pct: 88.0,
                random10_pct: 70.5,
                static_pct: -0.0,
            }]),
            "faults" => Arc::new(vec![FaultCell {
                mtbf_secs: 900,
                k: 3,
                transfers: 36,
                availability_pct: 97.2,
                mean_failovers: 0.11,
                mean_stall_ms: 812.0,
                goodput: 1.0e5,
                goodput_ratio: 0.93,
                mean_improvement_pct: f64::NAN,
            }]),
            "striping" => Arc::new(vec![StripeCell {
                scenario: "stale-brownout".into(),
                k: 2,
                chunks: 8,
                stale: true,
                raced_secs: 112.9,
                striped_secs: 4.5,
                ratio: f64::NAN,
                reassignments: 2,
                deaths: 1,
                direct_chunks: 0,
                overlay_chunks: 8,
            }]),
            "tournament" => Arc::new(vec![TournamentCell {
                policy: "k-shortest".into(),
                scenario: "ridge".into(),
                transfers: 12,
                mean_improvement_pct: 31.5,
                indirect_pct: 75.0,
                penalty_rate_pct: 8.25,
                probe_paths_per_transfer: 2.5,
                multi_hop_pct: f64::NAN,
            }]),
            other => panic!("no sample for study {other:?}"),
        }
    }

    /// Every cached record's byte layout, pinned through the encoders
    /// the sweep plans actually install. These digests are the cache
    /// contract: a failure means bytes already on disk would be misread
    /// or rejected — bump [`crate::sweep::CODEC_VERSION`] and re-pin,
    /// never just re-pin.
    #[test]
    fn layouts_are_pinned() {
        const PINNED: &[(&str, usize, &str)] = &[
            ("measurement", 598, "afe78e9ee5ffae21a48d3430775471bc"),
            ("selection", 536, "ab35afe1745956eb6ce10563742c8747"),
            ("sites", 81, "acab65d1a209e22cef27ae1afa21b8fe"),
            ("headroom", 44, "6685cdcf5b4e743cab3f4889d6c45fd8"),
            ("faults", 80, "4b7a23d332a8dd8e233071ab13e723c8"),
            ("striping", 87, "7cd033d9efa3eea9951e71a5e8110966"),
            ("tournament", 87, "d689d6ba2566830fdb4a3564eb0860c8"),
        ];
        let studies = crate::sweep::full_plan(2007, crate::Scale::Quick, None, None, None).studies;
        let mut seen = Vec::new();
        for study in &studies {
            let kind = study.name.split(['(', '/']).next().expect("study kind");
            let &(_, len, hex) = PINNED
                .iter()
                .find(|(k, _, _)| *k == kind)
                .unwrap_or_else(|| panic!("study {kind:?} has no pinned layout"));
            let bytes = (study.encode)(&sample_output(kind));
            assert_eq!((bytes.len(), digest(&bytes).as_str()), (len, hex), "{kind}");
            // What the decoder accepts re-encodes to the same bytes.
            let back = (study.decode)(&bytes).unwrap_or_else(|| panic!("{kind} decodes"));
            assert_eq!((study.encode)(&back), bytes, "{kind} round trip");
            seen.push(kind);
        }
        seen.dedup();
        assert_eq!(seen.len(), PINNED.len(), "every pinned layout is in a plan");
    }

    #[test]
    fn measurement_round_trips_bit_exactly() {
        let sc = tiny_scenario();
        let data = run_measurement_study(
            &sc,
            0,
            Schedule::measurement_study().truncated(3),
            SessionConfig::paper_defaults(),
        );
        let bytes = encode_measurement(&data);
        let back = decode_measurement(&bytes).expect("round trip");
        assert_eq!(back.names, data.names);
        assert_eq!(back.profiles, data.profiles);
        assert_eq!(back.clients, data.clients);
        assert_eq!(back.relays, data.relays);
        assert_eq!(back.server, data.server);
        assert_eq!(back.pairs.len(), data.pairs.len());
        for (a, b) in back.pairs.iter().zip(data.pairs.iter()) {
            assert_eq!(a.client, b.client);
            assert_eq!(a.via, b.via);
            assert_eq!(a.records, b.records);
        }
        // And the rendered artefacts agree byte for byte.
        let fig1_a = crate::fig1::report(&data);
        let fig1_b = crate::fig1::report(&back);
        assert_eq!(fig1_a.render(), fig1_b.render());
        assert_eq!(fig1_a.csv, fig1_b.csv);
    }

    #[test]
    fn selection_round_trips_bit_exactly() {
        let sc = tiny_scenario();
        let data = run_selection_study(
            &sc,
            &[1, 2],
            Schedule::selection_study().truncated(3),
            SessionConfig::paper_defaults(),
            7,
        );
        let bytes = encode_selection(&data);
        let back = decode_selection(&bytes).expect("round trip");
        assert_eq!(back.names, data.names);
        assert_eq!(back.clients, data.clients);
        assert_eq!(back.relays, data.relays);
        assert_eq!(back.runs.len(), data.runs.len());
        for (a, b) in back.runs.iter().zip(data.runs.iter()) {
            assert_eq!(a.client, b.client);
            assert_eq!(a.k, b.k);
            assert_eq!(a.records, b.records);
        }
    }
}
